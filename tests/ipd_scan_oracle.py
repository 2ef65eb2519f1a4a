"""Full-scan reference strategies for the iterated prisoner's dilemma.

These are the Alternator and Grim Trigger rules as first written: every
call rescans the opponent's whole history, so a round costs O(t) and a
match O(H^2), and no instance keeps state between calls. The production
strategies read only the last round or two instead; tests play both and
require equal `MatchResult`s. The kinds match the production ones so that
tournament labels compare equal.
"""

import math

from coopdyn.errors import ValidationError
from coopdyn.ipd import COOPERATE, DEFECT, Strategy


class FullScanGrimTrigger(Strategy):
    kind = "grim_trigger"

    def act(self, own, opponent):
        return DEFECT if DEFECT in opponent else COOPERATE


class FullScanAlternator(Strategy):
    kind = "alternator"

    def __init__(self, parity=None, punishment_length=None):
        self.parity = parity
        self.punishment_length = punishment_length

    def bind(self, position):
        if self.parity is not None:
            return self
        return FullScanAlternator(
            "first" if position == 0 else "second", self.punishment_length
        )

    def act(self, own, opponent):
        if self.parity is None:
            raise ValidationError("alternator parity unresolved; set it or call bind()")
        punish_until = 0.0
        for t in range(1, len(opponent)):
            if t >= punish_until and opponent[t] == opponent[t - 1]:
                if self.punishment_length is None:
                    punish_until = math.inf
                else:
                    punish_until = t + 1 + self.punishment_length
        this_round = len(own)
        if this_round < punish_until:
            return DEFECT
        defect_now = (this_round % 2 == 0) == (self.parity == "first")
        return DEFECT if defect_now else COOPERATE
