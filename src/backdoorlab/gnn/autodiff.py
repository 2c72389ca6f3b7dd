"""Empty: the model and its training differentiate in plain numpy, and the
tests check that backward pass against central differences.

The module stays only because ``perfbench/layertrace.py`` imports it and
wraps ``grad`` by name; ROADMAP item 10 deletes it together with that import
and wrap.  Nothing in the package imports it."""

grad = None
