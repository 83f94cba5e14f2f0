"""Import the package before any test module imports numpy, so that the tests
run the F_p products on the one OpenBLAS thread the package asks for, as the
`mckay` command does."""

import mckaygraphs  # noqa: F401
