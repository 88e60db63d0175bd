"""Exact continued-fraction measures and rigorous Fourier decay experiments."""

from fractions import Fraction

__version__ = "0.1.0"

# Defaults shared by the cascade, the scans, the lemmas and the CLI. They
# live here, not in cascade, so that a run on nu alone, and the CLI's
# parser, read them without loading cascade or numpy.
ALPHA_DEFAULT = Fraction(50, 358)
CYLINDER_BUDGET = 10**6
MC_SAMPLES = 20000
SWEEP_SEED = 20260823  # of the lemma sweeps
VERIFY_CASES = 60  # cases of each sweep cfraj verify runs


def config_hash(doc: dict) -> str:
    """First 16 hex digits of the sha256 of doc as sorted, compact JSON."""
    # imported here: every cfraj import runs this file, and loading
    # hashlib (OpenSSL) costs about as much as importing cfraj.words
    import hashlib
    import json

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
