"""Rewrite a pin of the tests from its writer.

    python3 tools/write_pins.py NAME

NAME is one of:

    refine_bits    ``_refine_bits()`` in tests/test_quadrature.py
    ladder_bits    ``_ladder_bits()`` in tests/test_blowup.py
    localize_bits  ``_localisation_bits()`` in tests/test_localize.py
    profile_pins   ``_profile_pins()`` in tests/test_profiles.py

It runs the writer on the working tree and prints each entry that moved as
``key: old -> new`` (``None`` for an entry that is new or gone).  For
localize_bits, ``_localisation_reference()`` gives the value each entry
approximates, and the line adds it and the relative errors of the old and
the new float: ``(reference R: error E_old -> E_new)``, where an entry
that is an exception's name reads as that name.  If any moved, it
rewrites ``tests/data/NAME.json`` as ``json.dumps(pins, indent=1,
sort_keys=True)`` plus a newline; if none did, it rewrites nothing.
Exits 0.
"""

import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WRITERS = {"refine_bits": ("test_quadrature", "_refine_bits"),
           "ladder_bits": ("test_blowup", "_ladder_bits"),
           "localize_bits": ("test_localize", "_localisation_bits",
                             "_localisation_reference"),
           "profile_pins": ("test_profiles", "_profile_pins")}


def error(entry, ref):
    """The relative error of a hex float entry against ``ref`` (absolute
    where ``ref`` is 0), or the entry itself if it is not a float."""
    try:
        x = float.fromhex(entry)
    except (TypeError, ValueError):
        return str(entry)
    return f"{abs(x - ref) / (abs(ref) or 1.0):.2e}"


def main(argv):
    if len(argv) != 1 or argv[0] not in WRITERS:
        sys.exit(__doc__)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    module, writer, *reference = WRITERS[argv[0]]
    module = importlib.import_module(module)
    # Through JSON, so that tuples compare equal to the lists read back.
    new = json.loads(json.dumps(getattr(module, writer)()))
    path = os.path.join("tests", "data", argv[0] + ".json")
    with open(os.path.join(ROOT, path)) as f:
        old = json.load(f)
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in moved:
        line = f"{key}: {json.dumps(old.get(key))} -> {json.dumps(new.get(key))}"
        if reference and (ref := getattr(module, reference[0])(key)) is not None:
            line += (f" (reference {ref!r}: error {error(old.get(key), ref)}"
                     f" -> {error(new.get(key), ref)})")
        print(line)
    if moved:
        with open(os.path.join(ROOT, path), "w") as f:
            f.write(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{argv[0]}: {len(moved)} of {len(new)} entries moved"
          + (f", {path} rewritten" if moved else ", nothing rewritten"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
