"""Reference implementations the production code is tested against.

Each oracle is the plain, pure-Python form of a path that runs natively (or
vectorized) in ``src/``; the differential suites feed both the same inputs
and compare the outputs value for value.
"""
