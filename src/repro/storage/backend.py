"""Physical page storage backends.

A backend only stores and retrieves raw page bytes; it knows nothing about
costs, caching or records.  Two implementations are provided:

* :class:`InMemoryBackend` — pages live in Python ``bytes`` objects.  This is
  the default for experiments and tests: the *cost model* (not the host
  machine's RAM/disk) provides the timing behaviour, so keeping the bytes in
  memory makes the simulation fast and hermetic.
* :class:`FileSystemBackend` — pages live in real files under a directory,
  one file per logical file.  Useful for inspecting on-disk layouts produced
  by the indexes and for running the library against real storage.

Failures are raised through the taxonomy of :mod:`repro.storage.errors`
(all subclasses of the seed-era :class:`StorageError`): a missing file is
:class:`MissingFileError`, a page number outside the file is
:class:`MissingPageError`, a trailing short page (a torn write, or a file
truncated out from under us) is :class:`CorruptPageError`, and host
``OSError`` s in :class:`FileSystemBackend` surface as
:class:`TransientIOError` so retry layers know they are worth retrying.
Oversized page data stays a plain :class:`StorageError`: it is a caller
bug, not an I/O fault.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path

from repro.storage.errors import (
    CorruptPageError,
    MissingFileError,
    MissingPageError,
    StorageError,
    TransientIOError,
)
from repro.storage.page import PAGE_SIZE

__all__ = [
    "CorruptPageError",
    "FileSystemBackend",
    "InMemoryBackend",
    "MissingFileError",
    "MissingPageError",
    "StorageBackend",
    "StorageError",
    "TransientIOError",
]


class StorageBackend(ABC):
    """Abstract page store: named files, each an array of fixed-size pages."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self._page_size = page_size

    @property
    def page_size(self) -> int:
        """Size in bytes of every page handled by this backend."""
        return self._page_size

    # -- file lifecycle -------------------------------------------------- #

    @abstractmethod
    def create(self, name: str) -> None:
        """Create an empty file.  Raises :class:`StorageError` if it exists."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Delete a file and its pages.  Raises if the file does not exist."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """Whether a file with this name exists."""

    @abstractmethod
    def list_files(self) -> list[str]:
        """Names of all files, sorted."""

    @abstractmethod
    def num_pages(self, name: str) -> int:
        """Number of pages currently in the file."""

    @abstractmethod
    def clone(self) -> "StorageBackend":
        """An independent copy of the backend with identical file contents.

        The benchmark harness uses this to run several approaches against
        byte-identical datasets without re-generating them: each run gets
        its own backend (and disk, and accounting) forked from a master.
        """

    # -- page access ----------------------------------------------------- #

    @abstractmethod
    def read(self, name: str, page_no: int) -> bytes:
        """Return the bytes of one page."""

    @abstractmethod
    def write(self, name: str, page_no: int, data: bytes) -> None:
        """Overwrite one existing page."""

    @abstractmethod
    def append(self, name: str, data: bytes) -> int:
        """Append one page and return its page number."""

    # -- shared validation ----------------------------------------------- #

    def _check_page_data(self, data: bytes) -> bytes:
        if len(data) > self._page_size:
            raise StorageError(
                f"page data of {len(data)} bytes exceeds page size {self._page_size}"
            )
        if len(data) < self._page_size:
            data = data + bytes(self._page_size - len(data))
        return data


class InMemoryBackend(StorageBackend):
    """Pages stored in process memory (the default for simulation)."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._files: dict[str, list[bytes]] = {}

    def create(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"file already exists: {name!r}")
        self._files[name] = []

    def delete(self, name: str) -> None:
        try:
            del self._files[name]
        except KeyError:
            raise MissingFileError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def clone(self) -> "InMemoryBackend":
        copy = InMemoryBackend(page_size=self.page_size)
        # Page bytes are immutable, so sharing them between clones is safe.
        copy._files = {name: list(pages) for name, pages in self._files.items()}
        return copy

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def num_pages(self, name: str) -> int:
        return len(self._pages(name))

    def read(self, name: str, page_no: int) -> bytes:
        pages = self._pages(name)
        self._check_page_no(name, page_no, len(pages))
        return pages[page_no]

    def write(self, name: str, page_no: int, data: bytes) -> None:
        pages = self._pages(name)
        self._check_page_no(name, page_no, len(pages))
        pages[page_no] = self._check_page_data(data)

    def append(self, name: str, data: bytes) -> int:
        pages = self._pages(name)
        pages.append(self._check_page_data(data))
        return len(pages) - 1

    def _pages(self, name: str) -> list[bytes]:
        try:
            return self._files[name]
        except KeyError:
            raise MissingFileError(f"no such file: {name!r}") from None

    @staticmethod
    def _check_page_no(name: str, page_no: int, total: int) -> None:
        if not 0 <= page_no < total:
            raise MissingPageError(
                f"page {page_no} out of range for {name!r} with {total} pages"
            )


class FileSystemBackend(StorageBackend):
    """Pages stored in real files under ``root`` (one OS file per logical file).

    Logical file names are sanitised into flat file names so callers may use
    arbitrary identifiers (dataset names, combination keys).
    """

    def __init__(self, root: str | os.PathLike[str], page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The directory the page files live under."""
        return self._root

    def _path(self, name: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
        return self._root / f"{safe}.pages"

    def create(self, name: str) -> None:
        path = self._path(name)
        if path.exists():
            raise StorageError(f"file already exists: {name!r}")
        path.touch()

    def delete(self, name: str) -> None:
        path = self._path(name)
        if not path.exists():
            raise MissingFileError(f"no such file: {name!r}")
        path.unlink()

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def clone(self) -> "FileSystemBackend":
        import shutil
        import tempfile

        new_root = Path(tempfile.mkdtemp(prefix="repro-pages-"))
        for path in self._root.glob("*.pages"):
            shutil.copy2(path, new_root / path.name)
        return FileSystemBackend(new_root, page_size=self.page_size)

    def list_files(self) -> list[str]:
        return sorted(p.stem for p in self._root.glob("*.pages"))

    def num_pages(self, name: str) -> int:
        path = self._require(name)
        return path.stat().st_size // self._page_size

    def read(self, name: str, page_no: int) -> bytes:
        path = self._require(name)
        if page_no < 0:
            raise MissingPageError(f"page {page_no} out of range for {name!r}")
        try:
            with path.open("rb") as handle:
                handle.seek(page_no * self._page_size)
                data = handle.read(self._page_size)
        except OSError as error:
            raise TransientIOError(f"read failed for {name!r}: {error}") from error
        if not data:
            total = path.stat().st_size // self._page_size
            raise MissingPageError(
                f"page {page_no} out of range for {name!r} with {total} pages"
            )
        if len(data) < self._page_size:
            # A trailing partial page means the OS file was truncated out
            # from under us (a torn write, or something that is not a page
            # store); surface it instead of returning short bytes.
            raise CorruptPageError(
                f"short page {page_no} in {name!r}: got {len(data)} of "
                f"{self._page_size} bytes"
            )
        return data

    def write(self, name: str, page_no: int, data: bytes) -> None:
        path = self._require(name)
        total = path.stat().st_size // self._page_size
        if not 0 <= page_no < total:
            raise MissingPageError(
                f"page {page_no} out of range for {name!r} with {total} pages"
            )
        data = self._check_page_data(data)
        try:
            with path.open("r+b") as handle:
                handle.seek(page_no * self._page_size)
                handle.write(data)
        except OSError as error:
            raise TransientIOError(f"write failed for {name!r}: {error}") from error

    def append(self, name: str, data: bytes) -> int:
        path = self._require(name)
        data = self._check_page_data(data)
        try:
            with path.open("ab") as handle:
                page_no = handle.tell() // self._page_size
                handle.write(data)
        except OSError as error:
            raise TransientIOError(f"append failed for {name!r}: {error}") from error
        return page_no

    def _require(self, name: str) -> Path:
        path = self._path(name)
        if not path.exists():
            raise MissingFileError(f"no such file: {name!r}")
        return path
