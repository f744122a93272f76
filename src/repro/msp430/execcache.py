"""Process-wide shared execution cache for fleets of MCUs.

A fleet campaign simulates many devices whose firmware images heavily
overlap — devices built from the same app subset share the whole
image, and *every* device shares the OS region bytes the linker lays
down first.  Before this module each :class:`~repro.msp430.cpu.Cpu`
decoded and superblock-compiled that code privately; a population of
N devices paid the translation cost N times.

:class:`SharedExecutionCache` is a content-addressed store, one per
distinct I/O port wiring, holding

* compiled superblocks keyed by entry PC, and
* decoded-instruction entries keyed by 64-byte page then PC,

published by the first CPU to translate them and pulled by every
later CPU attached to the same store.  Each published translation
carries the exact code bytes it was compiled from, so devices running
*different* firmware images still share every translation whose bytes
coincide at the same address — in practice the whole OS region and
every app region two images have in common.

Safety model — *content addressing, verify on every pull*:

* **Publish** is append-only: a translation is stored together with
  the publisher's live code bytes at translation time.  No pristine
  image is consulted — a self-modified device publishes (capped)
  variants of its modified code, which only a device with the *same*
  bytes can ever adopt.
* **Pull** compares the candidate's recorded bytes against the
  puller's own memory; on mismatch the next variant is tried, and a
  device whose code matches nothing published translates privately.
* **Invalidation stays device-local.**  A store into cached code pops
  the translation from that CPU's private view (and bumps its
  ``_code_version`` so in-flight blocks stop at the next store
  boundary); the shared store itself is immutable, so sibling devices
  are unaffected — the copy-on-write direction is "diverged device
  recompiles privately", never "shared entry mutated".

Execute *permission* is not part of the store: a CPU adopting a block
re-validates execute permission over the block's byte range against
its own MPU bitmap first (and adopts a per-device shallow copy, so
the block's ``perm_ok`` cache never ping-pongs between devices with
different MPU configurations).

Correctness rests on the superblock layer's architectural-equivalence
invariant (blocks vs. ``step()`` are bit-identical): sharing only
changes *which* PCs have blocks *when*, so shared-cache runs are
byte-identical to step-only runs.

Translation has two tiers, both in memory: each CPU's private view
and this process-wide store.  Neither is ever written to disk or
received from a peer, so every block a CPU runs was generated in this
process from code bytes it verified — bytes from outside the process
are simulated, never executed.
"""

from __future__ import annotations

import hashlib
from typing import Dict

#: variants kept per PC before publishing stops.  A device rewriting
#: its own code (rogue wild-pointer stores) would otherwise grow an
#: unbounded variant list at the rewritten PCs; past the cap it just
#: translates privately.
MAX_VARIANTS = 4


class SharedExecutionCache:
    """One port-wiring's shared translations: superblocks + icache
    entries, content-addressed by the code bytes they translate.

    ``blocks`` maps entry PC to a list of compiled
    :class:`~repro.msp430.cpu._Block` variants (each carrying its
    ``code`` bytes); ``pages`` maps 64-byte page index to
    ``{pc: [(code bytes, icache entry), ...]}``.  Lists are only ever
    appended to (never mutated or reordered), so concurrent readers
    in one process need no locking.
    """

    __slots__ = ("blocks", "pages",
                 "block_pulls", "page_pulls", "publishes", "rejects")

    def __init__(self):
        self.blocks: Dict[int, list] = {}
        self.pages: Dict[int, Dict[int, list]] = {}
        # introspection counters (tests, --profile diagnostics)
        self.block_pulls = 0
        self.page_pulls = 0
        self.publishes = 0
        self.rejects = 0

    def stats(self) -> dict:
        return {"blocks": len(self.blocks), "pages": len(self.pages),
                "block_pulls": self.block_pulls,
                "page_pulls": self.page_pulls,
                "publishes": self.publishes, "rejects": self.rejects}


#: sorted I/O port tuple -> store.  The port set is the store
#: identity because the superblock compiler terminates blocks at
#: instructions addressing registered ports — two machines with the
#: same bytes but different port wiring would disagree on block
#: boundaries.  Everything else is verified per entry, by content.
_REGISTRY: Dict[tuple, SharedExecutionCache] = {}


def image_digest(image: bytes) -> str:
    """sha-256 of a memory image (also the delta-checkpoint base id)."""
    return hashlib.sha256(image).hexdigest()


def shared_execution_cache(io_ports) -> SharedExecutionCache:
    """The process-wide store for this I/O port wiring."""
    key = tuple(sorted(io_ports))
    store = _REGISTRY.get(key)
    if store is None:
        store = _REGISTRY[key] = SharedExecutionCache()
    return store


def clear_registry() -> None:
    """Drop every store (tests that need cold-cache behaviour)."""
    _REGISTRY.clear()
