"""Non-executing deserialization for wire-crossing payloads.

``pickle.loads`` is an interpreter, not a parser: a GLOBAL or
STACK_GLOBAL opcode resolves any importable callable by name and
REDUCE calls it, so unpickling attacker-supplied bytes is arbitrary
code execution — the exploit runs *during* load, before any shape
check on the result can reject it.

Every payload this codebase ships across a socket or resumes from a
campaign directory (device checkpoints) is built from primitive types
only — ``dict``, ``list``, ``tuple``, ``str``, ``bytes``, ``int``,
``float``, ``bool``, ``None`` — which pickle protocol 2+ encodes with dedicated opcodes that never consult
``find_class``.  :func:`safe_loads` exploits that: it drives a
:class:`pickle.Unpickler` whose global resolution and persistent-id
hooks are disabled, so a payload referencing *any* module-level name
(``os.system``, ``builtins.eval``, an innocuous-looking class) raises
:class:`UnsafePayload` instead of resolving it.  Nothing is ever
imported or called on behalf of the payload.

The trade is symmetric: producers must keep serializing primitives
only (``pickle.dumps`` on the dicts the ``state_dict`` layers
already emit), and in exchange consumers may load bytes from an
untrusted peer with no more risk than ``json.loads``.
"""

from __future__ import annotations

import io
import pickle


class UnsafePayload(pickle.UnpicklingError):
    """The payload tried to resolve a global, class, or persistent id
    — something only an attacker-crafted pickle of our primitive-only
    formats would do.  Subclasses :class:`pickle.UnpicklingError`, so
    generic corrupt-payload handling catches it too."""


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        raise UnsafePayload(
            f"payload references global {module}.{name} — primitive-"
            "only formats never do; refusing to resolve it")

    def persistent_load(self, pid):
        raise UnsafePayload(
            "payload uses persistent ids — refusing to resolve them")


def safe_loads(data: bytes):
    """Deserialize a pickle of primitive values; raise
    :class:`UnsafePayload` the moment the payload references anything
    resolvable (and therefore callable)."""
    return _RestrictedUnpickler(io.BytesIO(data)).load()
