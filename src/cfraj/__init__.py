"""Exact continued-fraction measures and rigorous Fourier decay experiments."""

__version__ = "0.1.0"


def config_hash(doc: dict) -> str:
    """First 16 hex digits of the sha256 of doc as sorted, compact JSON."""
    # imported here: every cfraj import runs this file, and loading
    # hashlib (OpenSSL) costs about as much as importing cfraj.words
    import hashlib
    import json

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
