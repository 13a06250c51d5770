"""Document chunking for long-context training data (reference
context_windows.py:48-56, 162-330: chunk_by characters / words /
pages / sections with a fixed overlap; the reassembly-side overlap
dedup at :407-466 is the inverse).

Ray shape: a stateless flat-map — each input doc row becomes
`ceil(len/stride)` chunk rows. No shuffle; chunk ids are
deterministic (doc_id, chunk_index) so downstream dedup/resume can
key on them. Overlap text is carried at the FRONT of each chunk after
the first, mirroring the reference's strategy."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data


def chunk_text(text: str, max_chars: int, overlap: int) -> list[str]:
    """Split into chunks of at most max_chars, each (after the first)
    starting with the last `overlap` chars of the previous chunk."""
    if max_chars <= overlap:
        raise ValueError("max_chars must exceed overlap")
    if len(text) <= max_chars:
        return [text]
    stride = max_chars - overlap
    return [text[start : start + max_chars] for start in range(0, len(text) - overlap, stride)]


def dechunk_texts(chunks: list[str], overlap: int) -> str:
    """Inverse: strip the leading overlap from every chunk after the
    first (reference context_windows.py:407-466 overlap dedup)."""
    if not chunks:
        return ""
    return chunks[0] + "".join(c[overlap:] for c in chunks[1:])


def chunk_text_by_words(text: str, max_words: int, overlap_words: int) -> list[str]:
    """Word-boundary variant (reference chunk_by='words',
    context_windows.py:162-169): chunks of at most max_words tokens,
    each after the first starting with the previous chunk's last
    overlap_words tokens. Joining with single spaces normalizes intra-
    chunk whitespace (same as the reference's token join)."""
    if max_words <= overlap_words:
        raise ValueError("max_words must exceed overlap_words")
    words = text.split()
    if len(words) <= max_words:
        return [" ".join(words)] if words else [""]
    stride = max_words - overlap_words
    return [
        " ".join(words[start : start + max_words])
        for start in range(0, len(words) - overlap_words, stride)
    ]


# section-heading patterns for smart breaking (reference
# context_windows.py:133-141, mirrored 1:1)
_SECTION_PATTERNS = [
    re.compile(r"^#{1,6}\s+", re.MULTILINE),          # markdown headers
    re.compile(r"^\d+\.\s+", re.MULTILINE),           # numbered sections
    re.compile(r"^\d+\.\d+\s+", re.MULTILINE),        # sub-sections
    re.compile(r"^第\d+[章条節項]", re.MULTILINE),     # japanese sections
    re.compile(r"^[一二三四五六七八九十]+[、.]", re.MULTILINE),  # japanese numbering
    re.compile(r"^={3,}", re.MULTILINE),               # section breaks
    re.compile(r"^-{3,}", re.MULTILINE),               # horizontal rules
]


def find_section_boundaries(text: str) -> list[int]:
    """Sorted, deduplicated start offsets of section-heading matches
    (reference context_windows.py:315-328)."""
    out: set[int] = set()
    for pat in _SECTION_PATTERNS:
        for m in pat.finditer(text):
            out.add(m.start())
    return sorted(out)


def chunk_text_by_sections(
    text: str, max_chars: int, overlap: int = 0, min_chars: int = 0
) -> list[str]:
    """Section-boundary chunking (reference context_windows.py:235-276):
    accumulate whole sections until adding the next would exceed
    max_chars (and the current chunk has at least min_chars), then
    flush. No boundaries found -> fall back to character chunking.
    Each chunk after the first carries the previous chunk's last
    `overlap` chars at its front (reference _add_overlaps)."""
    boundaries = find_section_boundaries(text)
    boundaries = [b for b in boundaries if b > 0]
    if not boundaries:
        return chunk_text(text, max_chars, overlap)
    pieces = []
    prev = 0
    for b in boundaries:
        pieces.append(text[prev:b])
        prev = b
    pieces.append(text[prev:])
    chunks: list[str] = []
    cur = ""
    for piece in pieces:
        if cur and len(cur) + len(piece) > max_chars and len(cur) >= min_chars:
            chunks.append(cur)
            cur = ""
        cur += piece
    if cur:
        chunks.append(cur)
    if overlap and len(chunks) > 1:
        chunks = [chunks[0]] + [chunks[i - 1][-overlap:] + chunks[i] for i in range(1, len(chunks))]
    return chunks


def chunk_pages(pages: list[str], max_chars: int) -> list[str]:
    """Page-count chunking (reference context_windows.py:215-233):
    pages-per-chunk derived from the average page size so each chunk
    lands near max_chars; pages joined with a blank line."""
    if not pages:
        return []
    avg = sum(len(p) for p in pages) / len(pages)
    per = max(1, int(max_chars / avg)) if avg else len(pages)
    return ["\n\n".join(pages[i : i + per]) for i in range(0, len(pages), per)]


def chunk_documents(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_chars: int = 2000,
    overlap: int = 200,
    by: str = "chars",
    page_delim: str = "\f",
) -> ray.data.Dataset:
    """(id, chunk_index, chunk_text, n_chunk_chars) rows, one per
    chunk. by='chars' | 'words' | 'sections' | 'pages' (units of
    max_chars/overlap follow; sections break only at heading
    boundaries, reference chunk_by='sections'; pages splits the text
    on `page_delim` — form feed by default — and packs whole pages to
    ~max_chars per chunk, reference chunk_by='pages'; a text with no
    delimiter is one page -> one chunk)."""
    if by not in ("chars", "words", "sections", "pages"):
        raise ValueError(f"by must be 'chars', 'words', 'sections' or 'pages', got {by!r}")
    if by == "sections":
        def split(t: str, mx: int, ov: int) -> list[str]:
            return chunk_text_by_sections(t, mx, ov)
    elif by == "pages":
        def split(t: str, mx: int, ov: int) -> list[str]:
            return chunk_pages(t.split(page_delim), mx)
    else:
        split = chunk_text if by == "chars" else chunk_text_by_words

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, texts = [], [], []
        for did, t in zip(b[id_col], b[text_col]):
            cs = split(t, max_chars, overlap)
            ids.extend([did] * len(cs))
            idxs.extend(range(len(cs)))
            texts.extend(cs)
        return pd.DataFrame(
            {
                id_col: ids,
                "chunk_index": pd.array(idxs, dtype="int32"),
                "chunk_text": texts,
                "n_chunk_chars": pd.array([len(t) for t in texts], dtype="int64"),
            }
        )

    return ds.map_batches(expand, batch_format="pandas")


def pack_offsets(
    ds: ray.data.Dataset,
    seq_len: int = 512,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Concatenate-and-chunk packing plan (the standard LM pretraining
    pack: documents concatenated in id order, the token stream cut
    every seq_len): for each document its exact global token offset
    and the first/last training sequence it lands in. Token-less
    documents contribute nothing to the stream and emit no row
    (matching the SQL oracle's GROUP BY over exploded tokens).

    Scale shape: one slim (id, n_ws_tokens) row per document feeds
    rank.global_prefix_sum — a three-pass range-partition distributed
    scan; no sort or token stream ever reaches the driver. The output
    is the packing MANIFEST (what a sharded tokenizer job needs to
    write its sequences independently), not the packed tensors.
    """
    from pdf_extractor_ray.ops.rank import global_prefix_sum

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = b.set_index(id_col)[text_col].str.split().explode().dropna()
        toks = toks[toks != ""]
        n = toks.groupby(level=0).size()
        return pd.DataFrame({id_col: n.index.to_numpy(), "n_ws_tokens": n.to_numpy().astype("int64")})

    tf = ds.map_batches(counts, batch_format="pandas")
    off = global_prefix_sum(tf, [id_col], "n_ws_tokens", out_col="token_offset")

    def seqs(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        o = b["token_offset"].to_numpy().astype(np.int64)
        n = b["n_ws_tokens"].to_numpy().astype(np.int64)
        b["first_seq"] = o // seq_len
        b["last_seq"] = (o + n - 1) // seq_len
        return b[[id_col, "n_ws_tokens", "token_offset", "first_seq", "last_seq"]]

    return off.map_batches(seqs, batch_format="pandas")


def truncation_loss(
    ds: ray.data.Dataset,
    max_tokens: int,
    group_col: str = "lang",
    text_col: str = "text",
) -> pd.DataFrame:
    """Per-group audit of what a hard max_seq_len truncation throws
    away: for each group, total whitespace tokens, tokens KEPT under
    min(n_tokens, max_tokens) per document, the count of documents
    that overflow, and the quantized lost fraction. This is the table
    that decides between truncation and chunked packing per language —
    CJK-heavy or legal-heavy sources routinely lose a multiple of what
    English loses at the same cap, and nobody notices without the
    split-by-group view (the chunk_documents/pack_offsets operators
    are the remedies; this quantifies the need).

    Scale shape: one row-local tokenize pass emitting three int64
    partials per (block, group), then a driver-bounded grouped_sum —
    no shuffle wider than the group count. Integer sums; lost_frac is
    the one quantized float expression, mirrored by the SQL twin."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    cap = np.int64(max_tokens)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n = b[text_col].astype(str).str.split().str.len().to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "n_tokens": n,
                "kept_tokens": np.minimum(n, cap),
                "n_overflow": (n > cap).astype("int64"),
            }
        )

    stats = grouped_sum(
        ds.map_batches(partial, batch_format="pandas"),
        [group_col],
        ["n_tokens", "kept_tokens", "n_overflow"],
    ).to_pandas()
    tot = stats["sum_n_tokens"].to_numpy(dtype="int64")
    kept = stats["sum_kept_tokens"].to_numpy(dtype="int64")
    out = pd.DataFrame(
        {
            group_col: stats[group_col],
            "n_docs": stats["n"].astype("int64"),
            "n_overflow": stats["sum_n_overflow"].astype("int64"),
            "sum_n_tokens": tot,
            "sum_kept_tokens": kept,
            "lost_frac": np.floor(
                (tot - kept).astype("float64") * 1e6 / tot.astype("float64") + 0.5
            )
            / 1e6,
        }
    )
    return out.sort_values(group_col).reset_index(drop=True)


def stitch_candidates(
    ds: ray.data.Dataset,
    id_col: str = "chunk_id",
    text_col: str = "chunk_text",
    window_chars: int = 200,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Boundary-stitch detection: (left_id, right_id) pairs where the
    LEFT text's trailing `window_chars` characters equal the RIGHT
    text's leading window — the reassembly candidates for overlapped
    chunks, paginated articles and continued-on-next-page crawl
    fragments (the join-side inverse of chunk_documents' overlap; run
    over its output it must recover exactly the consecutive-chunk
    adjacency, which the SQL twin pins).

    Scale shape: each row emits at most two slim (boundary-md5, side,
    id) rows — the text itself NEVER crosses the exchange; one shuffle
    on hash(key) mod num_partitions; each partition joins its tails
    against its heads in one vectorized pandas merge. Rows shorter
    than the window emit nothing (no truncated-window guessing).
    ids must be int64 (the repo-wide id contract) — output blocks are
    Arrow-typed so empty partitions keep their schema."""
    import hashlib

    import pyarrow as pa

    from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition

    out_schema = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64())])

    def keys(b: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        sides: list[int] = []
        hkeys: list[str] = []
        for rid, t in zip(b[id_col], b[text_col]):
            t = str(t)
            if len(t) < window_chars:
                continue
            ids.extend([rid, rid])
            sides.extend([1, 0])  # 1 = my head, 0 = my tail
            hkeys.append(hashlib.md5(t[:window_chars].encode("utf-8")).hexdigest())
            hkeys.append(hashlib.md5(t[-window_chars:].encode("utf-8")).hexdigest())
        return pd.DataFrame({id_col: ids, "_side": pd.array(sides, dtype="int8"), "_key": hkeys})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        tails = g[g["_side"] == 0][["_key", id_col]].rename(columns={id_col: "left_id"})
        heads = g[g["_side"] == 1][["_key", id_col]].rename(columns={id_col: "right_id"})
        m = tails.merge(heads, on="_key")
        return m[m["left_id"] != m["right_id"]]

    return hash_partition(
        ds.map_batches(keys, batch_format="pandas"), column_hash("_key"), num_partitions, merge, out_schema
    )
