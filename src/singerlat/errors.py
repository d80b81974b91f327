"""Shared exception types, and how a refusal quotes a long number.

The command line maps these onto exit codes: InvalidInput -> 2,
CapExceeded -> 3.  InternalError is a failed soundness check, always a
bug or corrupted input, never a normal outcome: an AssertionError that
the library raises explicitly, so python -O keeps it.  GluingError, the
one raised by build_ball on a column 1 whose differences miss a nonzero
residue, is one.  They exit 4, as do any other uncaught error and a ball
that fails its verification.  Exit 1 comes only from certify's verdict,
and 0 is success.
"""

import math


class InvalidInput(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


class InternalError(AssertionError):
    pass


class GluingError(InternalError):
    pass


def _brief(n: int) -> str:
    """n as a refusal quotes it: in full up to 20 digits, else by its
    first and last three digits and its digit count, so that the message
    stays one short line.  It never calls str() on n, which Python
    refuses past 4,300 digits."""
    if -10 ** 20 < n < 10 ** 20:
        return str(n)
    a = abs(n)
    # below the digit count, float rounding included
    count = int((a.bit_length() - 1) * math.log10(2)) - 1
    while a >= 10 ** count:
        count += 1
    return (f"{'-' if n < 0 else ''}{a // 10 ** (count - 3)}..."
            f"{a % 1000:03d} ({count} digits)")
