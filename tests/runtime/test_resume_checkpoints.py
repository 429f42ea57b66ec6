"""Checkpoints written after a resume hold the uninterrupted run's state.

A campaign is run with a checkpoint per scan, resumed from the middle
checkpoint, and every checkpoint the resumed run writes must decode to
the same state as the uninterrupted run's checkpoint of that day.

The comparison ignores the order of the entries that serialize a live
map or set in its iteration order (the APD's blocks); everything else
must be equal as decoded.  Byte equality does not hold yet:
``HitlistService._pending_apd_input`` is restored from its sorted
checkpoint list, so it iterates in another order than the set the
uninterrupted run built address by address, and
``AliasedPrefixDetection.candidates_for_new_input`` inserts the new /64
candidates into ``apd.candidate_level`` in that order.  On this
schedule the full-mode run shows it from the day-49 checkpoint on.
"""

import os

import pytest

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.runtime.checkpoint import read_checkpoint
from repro.simnet import build_internet, small_config

SCAN_DAYS = list(range(0, 57, 7))

MODES = {
    "full": {},
    "incremental": {"scan_mode": "incremental"},
    "3-vantages": {"vantages": 3},
}

#: APD blocks that list a map's or a set's entries in iteration order
_APD_UNORDERED = ("history", "candidate_level", "last_tested", "aliased", "followup")


def _unordered(payload):
    """``payload`` with its iteration-ordered entries sorted."""
    apd = dict(payload["apd"])
    for key in _APD_UNORDERED:
        apd[key] = sorted(apd[key])
    return dict(payload, apd=apd)


def _checkpoints(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".ckpt"))


@pytest.fixture(scope="module")
def world():
    return build_internet(small_config())


@pytest.mark.parametrize("mode", list(MODES))
def test_later_checkpoints_match_uninterrupted_run(world, mode, tmp_path):
    config = small_config()
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day, **MODES[mode]
    )
    service = HitlistService(world, config, settings=settings)
    service.run(SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(tmp_path))
    names = _checkpoints(tmp_path)
    assert len(names) == len(SCAN_DAYS)
    uninterrupted = {
        name: read_checkpoint(str(tmp_path / name)) for name in names
    }

    cut = len(names) // 2
    for name in names[cut + 1:]:
        (tmp_path / name).unlink()
    HitlistService.resume(str(tmp_path / names[cut]), internet=world).run()

    later = names[cut + 1:]
    assert _checkpoints(tmp_path) == names
    for name in later:
        resumed = read_checkpoint(str(tmp_path / name))
        assert _unordered(resumed) == _unordered(uninterrupted[name]), name
