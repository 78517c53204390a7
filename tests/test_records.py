"""No record of the package compares arrays or dicts by value.

A dataclass with eq on compares its fields as a tuple: an array field makes
== raise ValueError (an array has no single truth value) and hash() raise
TypeError, and a dict field makes hash() raise. Such a record is declared
eq=False and compares and hashes by identity, or marks the field
compare=False.
"""

import dataclasses
import importlib
import pkgutil
import re

import qgbsde

_BY_VALUE_UNSAFE = re.compile(r"\b(np|numpy)\.ndarray\b|\bdict\b")


def _records():
    """Every dataclass defined in one of the package's modules."""
    for info in pkgutil.iter_modules(qgbsde.__path__):
        module = importlib.import_module(f"qgbsde.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_records_compare_no_array_or_dict_field_by_value():
    records = list(_records())
    assert len(records) > 10  # the walk found the package's records
    by_value = [f"{cls.__module__}.{cls.__qualname__}.{f.name}: {f.type}"
                for cls in records if cls.__dataclass_params__.eq
                for f in dataclasses.fields(cls)
                if f.compare and _BY_VALUE_UNSAFE.search(str(f.type))]
    assert by_value == []
