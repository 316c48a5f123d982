"""Exception types raised by the library.

Every domain error derives from ScfoError.  The CLI (cli.py) exits with
code 2 for usage errors: bad arguments, and ConfigInvalid (an unknown
scenario, an unreadable config file, an unknown or out-of-rule config
field).  Every other ScfoError, such as Infeasible or InsufficientOverlap,
is a domain failure of the run and exits with code 1.
"""


class ScfoError(Exception):
    """Base class for all domain errors."""


# rational clock math
class ZeroDenominator(ScfoError):
    pass


class NegativeFrequency(ScfoError):
    pass


class RatioOutOfRange(ScfoError):
    """Resampling ratio outside the +/-50% band the scheme assumes."""


# signal synthesis
class EmptyBand(ScfoError):
    pass


class UnknownAntenna(ScfoError):
    pass


# frontend
class BandZoneMismatch(ScfoError):
    pass


class AlreadyQuantized(ScfoError):
    pass


# filter / mixer design
class DesignInfeasible(ScfoError):
    pass


# resampler
class StreamTooShort(ScfoError):
    pass


class ChainWasQuantized(ScfoError):
    pass


# polyphase
class TapCountNotDivisible(ScfoError):
    pass


# correlator
class RateMismatch(ScfoError):
    pass


class InsufficientOverlap(ScfoError):
    pass


class EnvelopeRegimeViolated(ScfoError):
    pass


class InsufficientSamples(ScfoError):
    pass


# timing
class PulseTooNarrow(ScfoError):
    pass


class WindowTooShort(ScfoError):
    pass


# planning / scenarios
class Infeasible(ScfoError):
    pass


class ConfigInvalid(ScfoError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(field, message)  # both args, so it pickles across processes

    def __str__(self):
        return f"{self.field}: {self.args[1]}"
