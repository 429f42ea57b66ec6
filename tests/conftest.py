"""Hypothesis profiles for the whole test tree.

``HYPOTHESIS_PROFILE=ci`` runs the property and differential tests that
take their example count from the profile with ten times Hypothesis'
default; tier-1 runs use the ``default`` profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
