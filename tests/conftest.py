import pytest

from quintic_periods import MultiPoly, fermat_hypersurface, paper_line_slice


@pytest.fixture(scope="session")
def fermat():
    return fermat_hypersurface(3, 5)


@pytest.fixture(autouse=True)
def fresh_line_data(fermat):
    """Each test starts from an empty line data cache and no site plans on
    the shared hypersurface, so no test reads what an earlier one left
    there."""
    fermat.line_data.clear()
    fermat.site_plans.clear()


@pytest.fixture(scope="session")
def corrected_slice():
    return paper_line_slice(1, "corrected")


@pytest.fixture(scope="session")
def literal_slice():
    return paper_line_slice(1, "literal")


@pytest.fixture(scope="session")
def p_x1cubed_x2sq():
    return MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
