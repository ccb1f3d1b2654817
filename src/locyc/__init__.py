"""Construction and certification of elliptic curves over Q whose
mod-p Galois representations have cyclic decomposition groups at every
prime, for a chosen prime p >= 5."""

__version__ = "0.1.0"
