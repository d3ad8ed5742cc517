"""Independent references that the tests check ``tsr`` against.

Nothing under ``src`` imports from here: these are definitions that no
product path calls, kept beside the tests that compare the product with
them, and written apart from what they check.
"""
