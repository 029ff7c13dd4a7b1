"""Hypothesis settings profiles.

`mutants` leaves out the shrink phase: tests/mutants.py passes
--hypothesis-profile=mutants to its pytest runs, so a mutant that breaks a
property test fails at its first counterexample instead of spending minutes
shrinking it.  Without that option the default profile applies.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
