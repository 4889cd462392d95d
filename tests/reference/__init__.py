"""Reference models that the production code must agree with (test oracles)."""
