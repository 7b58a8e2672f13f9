"""Verification toolkit for the arithmetic of the Tate normal form E_7 and the
supersingular polynomials of the level-7 Fricke group.

Submodules:
  constants -- every fixed polynomial and table, exact integer coefficients
  exactring -- exact univariate/multivariate polynomial arithmetic, QQ(r)
  exactalg  -- the registry of exact polynomial identities
  ffpoly    -- F_l[x] toolbox: factorization, resultants, roots in F_l
  classnum  -- imaginary quadratic class numbers by reduced-form counting
  hasse7    -- the Hasse invariant of E_7 and its factor-type counts
  ss7star   -- ss_p(X), ss_p^(7*)(Y) by resultant and by a norm-based oracle, Nakaya's formula
  qseries   -- exact truncated Laurent series and the q-expansion identities
  cmeval    -- arbitrary-precision CM-point evaluation of h(w/7)
  sweep     -- deterministic parallel prime sweeps
  cli       -- the fricke7 command-line driver
"""

__version__ = "1.0.0"
