"""Web resources: the atoms of a page load."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cdn.compression import encoded_size, is_compressible, origin_encoding


class ResourceType(enum.Enum):
    """MIME-level resource categories the paper's PLT definition covers
    ('HTML, images, fonts, CSS... and any sub-resources')."""

    HTML = "html"
    CSS = "css"
    JS = "js"
    IMAGE = "image"
    FONT = "font"
    MEDIA = "media"
    XHR = "xhr"


@dataclass(frozen=True)
class Resource:
    """One fetchable object on a webpage.

    ``provider_name`` is ``None`` for non-CDN resources.  ``wave``
    models discovery depth: wave 0 resources are referenced directly by
    the HTML, wave 1 resources are discovered only after a wave 0
    CSS/JS file has loaded (fonts from stylesheets, XHRs from scripts).
    ``popular`` marks objects that long-lived edge caches already hold
    (the paper notes its pages are popular enough that first and second
    visits do not differ).  ``request_bytes``, the approximate size of
    the HTTP request, is derived from the URL once, at construction: a
    campaign requests each resource many times.
    """

    url: str
    host: str
    rtype: ResourceType
    size_bytes: int
    provider_name: str | None = None
    wave: int = 0
    popular: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"{self.url}: size_bytes must be positive")
        if self.wave not in (0, 1):
            raise ValueError(f"{self.url}: wave must be 0 or 1")
        object.__setattr__(self, "request_bytes", 400 + len(self.url))

    @property
    def is_cdn(self) -> bool:
        """Whether this resource is served from a CDN edge."""
        return self.provider_name is not None

    @property
    def compressible(self) -> bool:
        """Whether edges can transcode this resource (text-like types).

        Images and media ship pre-compressed; recompressing them buys
        nothing, so compression campaigns leave them identity-encoded.
        """
        return is_compressible(self.rtype.value)

    @property
    def stored_encoding(self) -> str:
        """The content encoding origins keep this resource in."""
        return origin_encoding(self.rtype.value)

    def encoded_bytes(self, encoding: str) -> int:
        """Wire size of this resource under ``encoding``.

        ``size_bytes`` stays the nominal (identity) size everywhere —
        page generation, store keys, legacy campaigns — and the
        compression model derives the on-the-wire size from it.
        """
        if not self.compressible:
            return self.size_bytes
        return encoded_size(self.size_bytes, encoding)
