import pytest

from propsemiring.algebra import free_boolean_algebra, table_semiring

from helpers import zmod_spec


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, *modules)`` wraps the function ``name`` in each
    module that binds it and returns a list that gets the arguments of
    every call."""

    def wrap(name, *modules):
        original, calls = getattr(modules[0], name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    return wrap


@pytest.fixture(scope="session")
def ba0():
    return free_boolean_algebra(0)


@pytest.fixture(scope="session")
def ba1():
    return free_boolean_algebra(1)


@pytest.fixture(scope="session")
def ba2():
    return free_boolean_algebra(2)


@pytest.fixture(scope="session")
def z2():
    return table_semiring(zmod_spec(2))


@pytest.fixture(scope="session")
def z3():
    return table_semiring(zmod_spec(3))


@pytest.fixture(scope="session")
def z5():
    return table_semiring(zmod_spec(5))
