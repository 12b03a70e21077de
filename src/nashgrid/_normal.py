"""Standard normal CDF and quantile, ported from Cephes.

ndtr and ndtri are Moshier's Cephes algorithms (Methods and Programs
for Mathematical Functions, 1989), the ones scipy.special evaluates:
the coefficients are verbatim and every multiply and add runs in
Cephes' order (polevl / p1evl Horner), so the results agree bit for
bit. Both work on float arrays and pick their branches with masks; a
scalar argument is taken as a 0-d array and comes back as one. Their callers hand them whole
partitions and sample chunks, so there is no per-float path.

exp (erfc) and log (the ndtri tails) go through Python's ``math``, the
C library call Cephes makes, and only on the elements that need them:
numpy's own vectorized exp and log may differ from the C library in the
last bit.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
# log(2**1024): exp(-x*x) underflows below -_MAXLOG
_MAXLOG = 7.09782712893383996843e2
_S2PI = 2.50662827463100050242e0
# exp(-2): ndtri's central rational covers y in (exp(-2), 1 - exp(-2)]
_EXPM2 = 0.13533528323661269189

# erfc(x) = exp(-x*x) P(x) / Q(x) for 1 <= x < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x*x) R(x) / S(x) for x >= 8
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x*x) / U(x*x) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)

# ndtri for 0 <= |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri for z = sqrt(-2 log y) in [2, 8), y in [exp(-32), exp(-2)]
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ndtri for z = sqrt(-2 log y) >= 8, y < exp(-32)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes polevl: coef[0] x^N + ... + coef[N] by Horner."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Cephes p1evl: polevl with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# the branch kernels

def _erf(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_near(x, ez):
    """erfc(x) for 1 <= x < 8, given ez = exp(-x*x)."""
    return ez * _polevl(x, _P) / _p1evl(x, _Q)


def _erfc_far(x, ez):
    """erfc(x) for x >= 8, given ez = exp(-x*x)."""
    return ez * _polevl(x, _R) / _p1evl(x, _S)


def _ndtri_central(y):
    """ndtri(y + 0.5) for |y| <= 3/8."""
    y2 = y * y
    x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
    return x * _S2PI


def _ndtri_tail(x, logx, coef_p, coef_q):
    """-ndtri(y) for y <= exp(-2), given x = sqrt(-2 log y) and log(x)."""
    z = 1.0 / x
    return (x - logx / x) - z * _polevl(z, coef_p) / _p1evl(z, coef_q)


# the dispatchers

def _libm(fn, v):
    """fn from Python's math applied to each element of the 1-d array v."""
    return np.fromiter(map(fn, v.tolist()), float, v.size)


def _ndtr_array(a):
    """ndtr of the 1-d array a."""
    x = a * _SQRT1_2
    z = np.abs(x)
    # erf's branch everywhere, then |a| >= 1 overwrites its entries; NaN
    # stays in erf's branch and comes out NaN
    with np.errstate(all="ignore"):
        out = 0.5 + 0.5 * _erf(x)
    rest = np.flatnonzero(z >= _SQRT1_2)
    zr = z.take(rest)
    # y = erfc(zr) / 2, the lower tail; 0 where exp(-zr*zr) underflows
    y = np.zeros_like(zr)
    near = zr < 1.0
    y[near] = 0.5 * (1.0 - _erf(zr[near]))
    with np.errstate(over="ignore"):  # -z*z is -inf past |a| ~ 2e154
        mid = np.flatnonzero((zr >= 1.0) & (-zr * zr >= -_MAXLOG))
    zm = zr.take(mid)
    ez = _libm(math.exp, -zm * zm)
    ym = 0.5 * _erfc_near(zm, ez)
    far = zm >= 8.0
    ym[far] = 0.5 * _erfc_far(zm[far], ez[far])
    y.put(mid, ym)
    out.put(rest, np.where(x.take(rest) > 0, 1.0 - y, y))
    return out


def _ndtri_array(y0):
    """ndtri of the 1-d array y0."""
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)
    # the central rational everywhere, then the tails, the ends and the
    # arguments outside [0, 1] overwrite their entries
    with np.errstate(all="ignore"):
        out = _ndtri_central(y - 0.5)
    tail = np.flatnonzero((y > 0.0) & (y <= _EXPM2))
    x = np.sqrt(-2.0 * _libm(math.log, y.take(tail)))
    logx = _libm(math.log, x)
    t = _ndtri_tail(x, logx, _P1, _Q1)
    far = x >= 8.0
    t[far] = _ndtri_tail(x[far], logx[far], _P2, _Q2)
    np.negative(t, out=t, where=~upper.take(tail))
    out.put(tail, t)
    out[(y0 < 0.0) | (y0 > 1.0)] = np.nan
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    return out


def ndtr(a):
    """P(Z <= a) for standard normal Z.

    a is taken as a float array and keeps its shape, 0-d included.
    """
    a = np.asarray(a, dtype=float)
    return _ndtr_array(a.ravel()).reshape(a.shape)


def ndtri(y):
    """The standard normal quantile: ndtr(ndtri(y)) = y for y in [0, 1].

    NaN outside [0, 1]. y is taken as a float array and keeps its
    shape, 0-d included.
    """
    y = np.asarray(y, dtype=float)
    return _ndtri_array(y.ravel()).reshape(y.shape)
