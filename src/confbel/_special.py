"""``scipy.special``, imported on the first attribute read (PEP 562).

Importing ``scipy.special`` costs about 0.3 s, mostly numpy modules it pulls
in through ``array_api_compat``; commands that evaluate no special function
never pay it.  The first read copies ``scipy.special``'s namespace into this
module and removes the hook, so later reads are plain module-attribute
lookups.
"""


def __getattr__(name):
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    # Take over the whole namespace, then drop this hook: CPython does not
    # specialize attribute reads on a module whose dict holds __getattr__,
    # and such a read costs about three times a plain one.
    globals().update((key, value) for key, value in vars(special).items() if not key.startswith("__"))
    globals().pop("__getattr__", None)
    return getattr(special, name)
