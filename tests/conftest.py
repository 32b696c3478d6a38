"""Imported by pytest before any test module.

`onoma` is imported first, before numpy, so numpy's OpenBLAS starts with one
thread as it does in the `onoma` command.
"""

import onoma  # noqa: F401
