"""Flat key = value config files with typed arrays.

One assignment per line, '#' starts a comment, values are typed by shape:

    experiment = fig1
    seed = 12345
    snr_db = 5.0
    lambdas = [0, 0.19952623149688797]
    noise_kind = none

Ints, floats, booleans (true/false), none, bare strings, and bracketed
comma-separated arrays of those.  render_value writes floats with repr, so
each value survives a render/parse round trip exactly.
"""

__all__ = [
    "parse_config_text",
    "render_value",
    "read_config",
]


def _parse_scalar(token: str):
    token = token.strip()
    if token == "":
        raise ValueError("empty value")
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low == "none":
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated array: {text!r}")
        body = text[1:-1].strip()
        if body == "":
            return ()
        return tuple(_parse_scalar(tok) for tok in body.split(","))
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: missing key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def _render_scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_value(value) -> str:
    """One value in the file syntax; round-trips through _parse_value."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_scalar(v) for v in value) + "]"
    return _render_scalar(value)


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
