"""The framing shared by trie caches and model checkpoints: an 8-byte magic
(so the 72-byte header keeps the sections after it aligned), the 32-byte key
of the KB the file was made for, a SHA-256 of the key and of every byte after
the hash, a struct of dims, then a body whose length the dims fix."""

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class SealedFormat:
    magic: bytes
    what: str                          # names the artifact in error messages
    error: type[InputError]            # raised for any file that fails a check
    dims: struct.Struct
    body_size: Callable[..., int]      # body bytes the dims imply, -1 for impossible dims

    def write(self, path, key: bytes, dims: Sequence[int], sections: Sequence[bytes]) -> None:
        head = self.dims.pack(*dims)
        digest = hashlib.sha256(key + head)
        for section in sections:
            digest.update(section)
        with open(path, "wb") as f:
            f.write(self.magic + key + digest.digest() + head)
            f.writelines(sections)

    def read(self, path, key: bytes | None) -> tuple[bytes, tuple[int, ...], memoryview]:
        """The key, dims and body of a file; ``error`` unless the magic, the length
        the dims imply, the SHA-256 and then the key, when one is given, match."""
        with open(path, "rb") as f:
            blob = memoryview(f.read())
        start = 72 + self.dims.size
        if len(blob) < start or blob[:8] != self.magic:
            raise self.error(f"{path}: not a {self.what}")
        dims = self.dims.unpack_from(blob, 72)
        if len(blob) != start + self.body_size(*dims):
            raise self.error(f"{path}: truncated or padded, or bad dims {dims}")
        digest = hashlib.sha256(blob[8:40])
        digest.update(blob[72:])
        if digest.digest() != blob[40:72]:
            raise self.error(f"{path}: contents do not match their SHA-256")
        if key is not None and blob[8:40] != key:
            raise self.error(f"{path}: {self.what} was made for a different KB")
        return bytes(blob[8:40]), dims, blob[start:]
