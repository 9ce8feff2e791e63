"""Frozen reference values for the test suite.

Computed independently of the library with mpmath at 30 significant
digits (root-finding on the exact series for the gauge, tanh-sinh
quadrature with explicit splits for the integrals), then rounded to the
nearest double.  The delta(2) integrals are taken in L = ln(1 + t), where
the integrand N(t/k) e^(L^2) 2L / (e^(L^2) - 1)^2 decays like e^(-2L ln k),
split at L0, L0 + 1/2, L0 + 1, 2, 4, ..., 128; the delta(2) embedding
constants are mpmath ``findroot`` solutions of that integral equal to 1.
"""

import math

# root of gauge(alpha) = 2, 0.43187054767151416293543853026... at 50 digits
BETA0 = 0.43187054767151417

# gauge values
GAUGE = {
    0.3: 1.5768519423122252,
    0.5: 2.295587149392638,
    0.6: 2.8900513138702549,
    0.9: 10.800642148134161,
    0.999: 1000.9977935911060,
}
# gauge at the six-digit rounding of the root (not exactly 2)
GAUGE_AT_SIX_DIGIT_ROOT = 1.9999978801427497

# embedding constants of the exponential family, BETA0 ** (-1/m)
K0_EXP = {
    1.0: 2.3155086759021405,
    1.5: 1.750240013684873,
    2.0: 1.5216795575620185,
    3.0: 1.3229663690679642,
    100.0: 1.0084316416748072,
}

# threshold where exp_m(2) crosses 1: sqrt(2 ln 2)
Y0_EXP2 = 1.1774100225154747

TWO_LN_TWO = 2.0 * math.log(2.0)

# indicator norms 1/N^{-1}(1/a) in exp_m(2)
INDICATOR_EXP2 = {
    0.1: 0.456635736350237,
    0.5: 0.6746255356221099,
    1.0: 0.849321800288019,
}

# t-form criterion integral for the delta(2) family at scalings 1/k,
# int_{t0}^inf N(t/k) |d 1/N(t)|; finite for every k > 1
DELTA2_CRITERION_T_FORM = {
    1.5: 3.5922012357597827,
    2.0: 1.3398792542136278,
    4.0: 0.2897688958430279,
}

# embedding constant of delta(2) by total mass: the root k0 of
# int_{t0}^inf N(t/k) |d 1/N(t)| = 1 with t0 = N^{-1}(1/mass)
DELTA2_K0 = {
    0.25: 1.9806971263250566,
    1.0: 2.2372639976900167,
    4.0: 2.5412224429593426,
}

# embedding constant of exp_m(m) by total mass, a0^(-1/m): in x = t^m / m
# the root condition reads int_{x0}^inf (e^(a x) - 1) e^x / (e^x - 1)^2 dx = 1
# with x0 = ln(1 + 1/mass), and a0 is its mpmath ``findroot`` solution at
# 40 digits (0.55218846508363562 at mass 0.25, 0.31671578650220125 at
# mass 4; BETA0 at mass 1)
EXP_K0_BY_MASS = {
    (150.0, 0.25): 1.0039669534039148,
    (150.0, 4.0): 1.0076944545358915,
    (300.0, 0.25): 1.001981513504074,
    (300.0, 4.0): 1.0038398550246406,
}

# alpha*(M): the alpha in (0, 1) where the embedding modular of exp_m equals
# 1 on a space of total mass M, so that k0[exp_m(m), M] = alpha*(M)^(-1/m).
# With z = M/(M+1), G(alpha) = int_0^z s^-alpha (1-s)^-2 ds
# = z^(1-alpha)/(1-alpha) 2F1(2, 1-alpha; 2-alpha; z), and the root solves
# G = M + 1 (mpmath's quad loses digits at small M; the hypergeometric form
# does not).  Computed at 80 digits, and again at 50 (agreeing to 6.6e-28
# relative or better), then rounded to the nearest double:
#
#     import mpmath as mp
#     mp.mp.dps = 80
#     def alpha_star(M):
#         M = mp.mpf(M); z = M / (M + 1)
#         G = lambda a: z ** (1 - a) / (1 - a) * mp.hyp2f1(2, 1 - a, 2 - a, z) - (M + 1)
#         lo, hi = mp.mpf(0), 1 - mp.mpf(10) ** -12
#         for _ in range(272):
#             mid = (lo + hi) / 2
#             lo, hi = (mid, hi) if G(mid) < 0 else (lo, mid)
#         return mp.findroot(G, (lo + hi) / 2)
#
# (0.5521884650836356 at mass 0.25, 0.43187054767151417 at mass 1 and
# 0.3167157865022013 at mass 4, the roots behind EXP_K0_BY_MASS and BETA0.)
EXP_ALPHA_BY_MASS = {
    1e-6: 0.8584731862394323,
    1e-3: 0.7805617830565516,
    1e3: 0.12298665022625706,
    1e6: 0.06697288398504224,
    1e12: 0.034855515589352876,
}

# L^200 norm of the exp_m(2) extremal function on mass 1, whose tail is
# min(1, 1/N(t)) with N(t) = e^(t^2/2) - 1: (t0^p + p I)^(1/p) with p = 200,
# t0 = sqrt(2 ln 2) and I = int_{t0}^inf t^(p-1) / N(t) dt.  mpmath at 50
# digits gives 8.71695925708435239358126081375..., both by ``quad`` split at
# 5, 10, 14, 18, 25 and 40 and by the series
# I = 2^(p/2-1) sum_k k^(-p/2) Gamma(p/2, k ln 2) (agreeing to 25 digits):
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     p, a, t0 = 200, mp.mpf(100), mp.sqrt(2 * mp.log(2))
#     I = 2 ** (a - 1) * mp.nsum(lambda k: k ** -a * mp.gammainc(a, k * mp.log(2)),
#                                [1, mp.inf])
#     (t0 ** p + p * I) ** (1 / mp.mpf(p))
#
# t^(p-1) leaves the float range past t = 35.4, where 1/N(t) is still 1e-272.
EXP2_EXTREMAL_L200 = 8.716959257084353

# L^50 norms of the exp_m(m) extremal functions on mass 1, m = 1 and 1/2:
# (t0^p + p I)^(1/p) with p = 50, t0 = (m ln 2)^(1/m) and
# I = int_{t0}^inf t^(p-1) / N(t) dt, N(t) = e^(t^m/m) - 1.  Expanding 1/N
# as sum_k e^(-k t^m/m) and substituting u = t^m/m gives
# I = m^(a-1) sum_k k^(-a) Gamma(a, k ln 2) with a = p/m.  mpmath at 50
# digits gives 19.4832542269812817713858... (m = 1) and
# 360.861110913271293620849... (m = 1/2); at 30 digits the series and
# ``quad`` split up to t = 300 (m = 1) and t = 2e5 (m = 1/2) agree to 25:
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     m, p = mp.mpf(1), mp.mpf(50)  # or m = mp.mpf(1) / 2
#     u0, a = mp.log(2), p / m
#     I = m ** (a - 1) * mp.nsum(lambda k: k ** -a * mp.gammainc(a, k * u0),
#                                [1, mp.inf])
#     ((m * u0) ** a + p * I) ** (1 / p)
#
# The library's tail is 0 past t_z = (700 m)^(1/m), where N reaches its
# cap; the part of the integral past t_z is below 1e-150 of the whole.
EXP_EXTREMAL_L50 = {1.0: 19.48325422698128, 0.5: 360.8611109132713}

# L^200 norm of e^-t on mass 1, Gamma(201)^(1/200), which is also that of
# the exp_m(1) extremal function: its tail min(1, 1/(e^t - 1)) moves the
# integral p int t^(p-1) T(t) dt by 1e-58 of it.  mpmath at
# 40 digits gives 74.90045280473883292574353466051797147598...:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     mp.gamma(201) ** (mp.mpf(1) / 200)
#
# The integral Gamma(201) = 7.9e374 is not a float, nor is p t^199 e^-t
# near its peak at t = 199.
EXP_L200 = 74.90045280473883

# L^200 norm of the exp_m(1/2) extremal function on mass 1, whose tail is
# min(1, 1/N(t)) with N(t) = e^(2 sqrt(t)) - 1: (u0^p + p I)^(1/p) with
# p = 200, u0 = s0^2, s0 = ln(2)/2 and I = int_{u0}^inf t^(p-1) / N(t) dt.
# Substituting t = s^2 and expanding 1/N as sum_k e^(-2ks) gives
# p I = 2p sum_k Gamma(2p, 2k s0) / (2k)^(2p).  mpmath at 40 digits gives
# 5520.419478116737437177241716291795340026..., both by that series and by
# ``quad`` split at u0, 1, 1e4, 4e4, 1e5 and 1e6 (agreeing to all 40):
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     p, s0 = mp.mpf(200), mp.log(2) / 2
#     u0 = s0 ** 2
#     S = mp.nsum(lambda k: mp.gammainc(2 * p, 2 * k * s0) / (2 * k) ** (2 * p),
#                 [1, mp.inf])
#     (u0 ** p + 2 * p * S) ** (1 / p)
EXP05_EXTREMAL_L200 = 5520.419478116737
