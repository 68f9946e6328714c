"""``json.dumps(doc, sort_keys=True, indent=2)`` byte for byte, without its slow encoder.

Dicts, lists, tuples (as lists), str, int, bool and None; other types
and non-str keys raise `TypeError`.  ``pad`` is a newline and the indent
of the value's line.
"""

# the C encoder that json.encoder itself uses; importing it from there
# would load the whole json package
from _json import encode_basestring_ascii

_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def render(value, pad: str = "\n") -> str:
    encode = _SCALARS.get(type(value))
    if encode:
        return encode(value)
    if isinstance(value, dict):
        return render_object([(k, render(v, pad + "  ")) for k, v in value.items()], pad)
    if isinstance(value, (list, tuple)):
        return _block("[]", [render(v, pad + "  ") for v in value], pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_object(pairs, pad: str) -> str:
    """An object of (key, rendered value) pairs, sorted by key."""
    return _block("{}", [f"{encode_basestring_ascii(k)}: {v}" for k, v in sorted(pairs)], pad)


def render_rows(columns: tuple, rows: list, pad: str) -> str:
    """A list of objects, the rows keyed by ``columns``, from one ``%`` template."""
    template = render_object([(c, "%s") for c in columns], pad + "  ")
    order = sorted(range(len(columns)), key=columns.__getitem__)
    inner = pad + "    "
    return _block("[]", [template % tuple([render(row[i], inner) for i in order])
                         for row in rows], pad)


def _block(brackets: str, items: list, pad: str) -> str:
    sep = f",{pad}  "
    return f"{brackets[0]}{pad}  {sep.join(items)}{pad}{brackets[1]}" if items else brackets
