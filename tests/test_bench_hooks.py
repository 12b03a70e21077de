"""The names the traced benchmark rebinds stay importable and restorable.

perfbench/trace.py wraps nashgrid module attributes by name; a renamed
or dropped attribute makes ``perfbench/run.py --trace 1`` fail. This
test enters the tracer, instruments every hook and exits, so such a
change fails here first.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace  # noqa: E402

from nashgrid import aggregate, cli, discretize, oracle  # noqa: E402


def test_tracer_instruments_and_restores_every_hook():
    owners = (aggregate.RunningMoments, cli, discretize, oracle)
    before = [dict(vars(owner)) for owner in owners]
    with trace.Tracer() as tracer:
        trace.instrument(tracer)
        assert discretize.solve_box_vi_batch is not \
            before[2]["solve_box_vi_batch"]
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert [k for k in saved if now.get(k) is not saved[k]] == []
