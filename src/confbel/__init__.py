"""Consonant belief and plausibility functions from confidence regions.

The package turns nested confidence-region families into possibility
contours, builds valid fused inferential constructions on top of them through
predictive random sets, and audits both by Monte Carlo.  Import from the
submodules, such as :mod:`confbel.models` for the worked statistical models
and :mod:`confbel.cli` for the batch command line; this module loads none.
"""

__version__ = "0.1.0"
