"""The framing shared by trie caches and model checkpoints: an 8-byte magic
(so the 72-byte header keeps the sections after it aligned), a 32-byte key
naming what the file was made for, a SHA-256 of the key and of every byte
after the hash, a struct of dims, then the sections whose lengths the dims
declare. A trie cache's key is the SHA-256 of its KB file, a checkpoint's
that of its output vocabulary, and ``read`` checks the key it is given."""

import hashlib
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class SealedFormat:
    magic: bytes
    what: str                          # names the artifact in error messages
    error: type[InputError]            # raised for any file that fails a check
    dims: struct.Struct
    sections: Callable[..., Sequence[int] | None]  # each section's bytes, None for impossible dims

    def write(self, path, key: bytes, dims: Sequence[int], sections: Sequence) -> None:
        """Write the file; each section is any contiguous bytes-like object, written without a copy.
        Raises InputError, creating no file, for dims the struct cannot hold."""
        try:
            head = self.dims.pack(*dims)
        except struct.error:
            raise InputError(f"{path}: a {self.what} cannot hold dims {tuple(dims)}") from None
        digest = hashlib.sha256(key + head)
        for section in sections:
            digest.update(section)
        with open(path, "wb") as f:
            f.write(self.magic + key + digest.digest() + head)
            f.writelines(sections)

    def read(self, path, key: bytes | None) -> tuple[tuple[int, ...], list[memoryview]]:
        """The dims and sections of a file; ``error`` unless the magic, the length
        the dims imply, the SHA-256 and then the key, when one is given, match."""
        with open(path, "rb") as f:
            blob = memoryview(f.read())
        start = 72 + self.dims.size
        if len(blob) < start or blob[:8] != self.magic:
            raise self.error(f"{path}: not a {self.what}")
        dims = self.dims.unpack_from(blob, 72)
        sizes = self.sections(*dims)
        if sizes is None or len(blob) != start + sum(sizes):
            raise self.error(f"{path}: truncated or padded, or bad dims {dims}")
        digest = hashlib.sha256(blob[8:40])
        digest.update(blob[72:])
        if digest.digest() != blob[40:72]:
            raise self.error(f"{path}: contents do not match their SHA-256")
        if key is not None and blob[8:40] != key:
            raise self.error(f"{path}: {self.what} was made for a different KB")
        ends = list(accumulate(sizes, initial=start))
        return dims, [blob[a:b] for a, b in zip(ends, ends[1:])]
