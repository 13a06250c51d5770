"""AES block cipher (FIPS 197) in pure numpy, plus the CBC modes the
PDF standard security handler needs (ISO 32000-1 §7.6.2 AESV2, ISO
32000-2 §7.6.4 AESV3).

Public-knowledge implementation discipline (same as the RFC 1321 MD5
in ops/scrub.py): every table is GENERATED from the published field
arithmetic rather than typed in — the S-box is the affine transform of
the GF(2^8) multiplicative inverse (FIPS 197 §5.1.1), the MixColumns
tables come from GF multiplication by the spec's fixed polynomials
(§5.1.3/§5.3.3), Rcon is the powers of x in GF(2^8) (§5.2) — and the
whole cipher is pinned to the FIPS 197 Appendix C known-answer vectors
in tests/test_pdf_codec.py.

Block operations are vectorized over ALL blocks of a payload at once
(shape (n_blocks, 16) uint8): CBC *decryption* is data-parallel
(P_i = D(C_i) xor C_{i-1}), so decrypting a stream costs a handful of
numpy passes regardless of length — this is the hot path, running
inside the extraction UDF on every encrypted corpus stream. CBC
encryption is inherently sequential across blocks and is only used by
the fixture writer.
"""

from __future__ import annotations

import numpy as np


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1
    (0x11B), by the shift-and-reduce method (FIPS 197 §4.2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return out & 0xFF


def _build_tables() -> dict[str, np.ndarray]:
    # the powers of the generator 3 (x + 1) run through all 255 nonzero
    # elements, so with exp[i] = 3^i and log its inverse, a * b is
    # exp[log a + log b] and the inverse of a is exp[255 - log a]
    exp = np.zeros(510, dtype=np.intp)
    log = np.zeros(256, dtype=np.intp)
    a = 1
    for i in range(255):
        exp[i] = exp[i + 255] = a
        log[a] = i
        a ^= ((a << 1) ^ (0x1B if a & 0x80 else 0)) & 0xFF  # a * 3 = a ^ xtime(a)
    x = np.arange(256)
    b = np.where(x > 0, exp[255 - log], 0)  # multiplicative inverse, 0 for 0
    s = 0x63 ^ b
    for r in range(1, 5):  # b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4)
        s ^= ((b << r) | (b >> (8 - r))) & 0xFF
    sbox = s.astype(np.uint8)
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    muls = {k: np.where(x > 0, exp[log[k] + log], 0).astype(np.uint8) for k in (2, 3, 9, 11, 13, 14)}
    return {"sbox": sbox, "inv_sbox": inv_sbox, **{f"mul{k}": v for k, v in muls.items()}}


_T = _build_tables()
_SBOX = _T["sbox"]
_INV_SBOX = _T["inv_sbox"]
_M2, _M3, _M9, _M11, _M13, _M14 = (
    _T["mul2"], _T["mul3"], _T["mul9"], _T["mul11"], _T["mul13"], _T["mul14"]
)

# ShiftRows as a flat-index permutation. FIPS 197 state is column-major
# (flat byte i -> state[row i%4][col i//4]); row r rotates left by r, so
# out[r + 4c] = in[r + 4*((c + r) % 4)].
_SHIFT = np.array([(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)], dtype=np.intp)
_INV_SHIFT = np.empty(16, dtype=np.intp)
_INV_SHIFT[_SHIFT] = np.arange(16, dtype=np.intp)


def _key_schedule(key: bytes) -> np.ndarray:
    """Round keys as a (Nr+1, 16) uint8 array (§5.2 KeyExpansion);
    accepts 16-byte (AES-128, Nr=10) and 32-byte (AES-256, Nr=14) keys."""
    nk = len(key) // 4
    if nk not in (4, 8):
        raise ValueError(f"AES key must be 16 or 32 bytes, got {len(key)}")
    nr = nk + 6
    w = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    rcon = 1
    for i in range(nk, 4 * (nr + 1)):
        t = list(w[i - 1])
        if i % nk == 0:
            t = t[1:] + t[:1]  # RotWord
            t = [int(_SBOX[b]) for b in t]  # SubWord
            t[0] ^= rcon
            rcon = _gf_mul(rcon, 2)
        elif nk > 6 and i % nk == 4:
            t = [int(_SBOX[b]) for b in t]
        w.append([a ^ b for a, b in zip(w[i - nk], t)])
    flat = np.array(w, dtype=np.uint8).reshape(nr + 1, 16)
    return flat


def _mix_columns(b: np.ndarray) -> np.ndarray:
    s = b.reshape(-1, 4, 4)  # [block, column, row] (flat = row + 4*col)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    out = np.empty_like(s)
    out[:, :, 0] = _M2[a0] ^ _M3[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ _M2[a1] ^ _M3[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ _M2[a2] ^ _M3[a3]
    out[:, :, 3] = _M3[a0] ^ a1 ^ a2 ^ _M2[a3]
    return out.reshape(-1, 16)


def _inv_mix_columns(b: np.ndarray) -> np.ndarray:
    s = b.reshape(-1, 4, 4)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    out = np.empty_like(s)
    out[:, :, 0] = _M14[a0] ^ _M11[a1] ^ _M13[a2] ^ _M9[a3]
    out[:, :, 1] = _M9[a0] ^ _M14[a1] ^ _M11[a2] ^ _M13[a3]
    out[:, :, 2] = _M13[a0] ^ _M9[a1] ^ _M14[a2] ^ _M11[a3]
    out[:, :, 3] = _M11[a0] ^ _M13[a1] ^ _M9[a2] ^ _M14[a3]
    return out.reshape(-1, 16)


def encrypt_blocks(blocks: np.ndarray, rk: np.ndarray) -> np.ndarray:
    """Cipher (§5.1) over a (n, 16) uint8 array of blocks."""
    b = blocks ^ rk[0]
    nr = rk.shape[0] - 1
    for r in range(1, nr):
        b = _SBOX[b][:, _SHIFT]
        b = _mix_columns(b) ^ rk[r]
    return _SBOX[b][:, _SHIFT] ^ rk[nr]


def _build_td() -> np.ndarray:
    """_TD[i][x]: the little-endian column word InvMixColumns makes of
    InvSubBytes(x) standing in row i (rows of §5.3.3's matrix)."""
    rows = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))
    mul = {9: _M9, 11: _M11, 13: _M13, 14: _M14}
    td = np.zeros((4, 256), dtype="<u4")
    for i in range(4):
        for row in range(4):
            td[i] |= mul[rows[row][i]][_INV_SBOX].astype("<u4") << (8 * row)
    return td


_TD = _build_td()
_ROW_SHIFT = [_INV_SHIFT[i::4] for i in range(4)]  # InvShiftRows of row i, columns 0-3


def _inner_keys(rk: np.ndarray) -> np.ndarray:
    """InvMixColumns of the inner round keys, as little-endian column
    words: (Nr-1, 4)."""
    return _inv_mix_columns(rk[1:-1]).view("<u4")


def decrypt_blocks(blocks: np.ndarray, rk: np.ndarray, dk: np.ndarray | None = None) -> np.ndarray:
    """InvCipher (§5.3) over a (n, 16) uint8 array of blocks. ``rk`` is
    (Nr+1, 16), or (Nr+1, n, 16) for a round key per block, and ``dk``
    its ``_inner_keys`` (computed here if not given; (Nr-1, n, 4) for
    per-block keys). Inner rounds run as the equivalent inverse cipher
    (§5.3.5): InvMixColumns is linear, so InvMixColumns(InvSubBytes(x)
    ^ k) is the _TD lookup of x xor InvMixColumns(k)."""
    nr = rk.shape[0] - 1
    if dk is None:
        dk = _inner_keys(rk)
    b = blocks ^ rk[nr]
    s0, s1, s2, s3 = _ROW_SHIFT
    for r in range(nr - 1, 0, -1):
        w = _TD[0][b[:, s0]] ^ _TD[1][b[:, s1]] ^ _TD[2][b[:, s2]] ^ _TD[3][b[:, s3]]  # [block, column]
        w ^= dk[r - 1]
        b = np.ascontiguousarray(w).view(np.uint8).reshape(-1, 16)
    return _INV_SBOX[b[:, _INV_SHIFT]] ^ rk[0]


def _as_blocks(data: bytes) -> np.ndarray:
    if len(data) % 16:
        raise ValueError(f"data length {len(data)} not a multiple of the AES block size")
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)


# ---------------------------------------------------------------------------
# Scalar fast path: classic 32-bit T-tables (SubBytes+ShiftRows+MixColumns
# fused — the standard software-AES construction described in the Rijndael
# proposal §5.2). CBC *encryption* is sequential across blocks, so the
# vectorized kernel pays ~0.25 ms of numpy dispatch per block; the T-table
# path runs a block in ~20 us of pure-int Python. Pinned equal to the
# numpy kernel (and thus to FIPS 197) in tests.
# ---------------------------------------------------------------------------

def _build_ttables() -> list[list[int]]:
    t0 = []
    for x in range(256):
        s = int(_SBOX[x])
        s2 = _gf_mul(s, 2)
        s3 = s2 ^ s
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
    rotr8 = lambda v: ((v >> 8) | (v << 24)) & 0xFFFFFFFF  # noqa: E731
    t1 = [rotr8(v) for v in t0]
    t2 = [rotr8(v) for v in t1]
    t3 = [rotr8(v) for v in t2]
    return [t0, t1, t2, t3]


_T0, _T1, _T2, _T3 = _build_ttables()
_SBOX_I = [int(v) for v in _SBOX]


def _rk_words(rk: np.ndarray) -> list[list[int]]:
    """(Nr+1, 16) byte round keys -> per-round big-endian 32-bit words."""
    return [
        [int.from_bytes(bytes(rk[r, 4 * i : 4 * i + 4]), "big") for i in range(4)]
        for r in range(rk.shape[0])
    ]


def _encrypt_block_fast(block: bytes, rkw: list[list[int]]) -> bytes:
    w = [int.from_bytes(block[4 * i : 4 * i + 4], "big") ^ rkw[0][i] for i in range(4)]
    nr = len(rkw) - 1
    for r in range(1, nr):
        k = rkw[r]
        w = [
            _T0[(w[i] >> 24) & 0xFF]
            ^ _T1[(w[(i + 1) & 3] >> 16) & 0xFF]
            ^ _T2[(w[(i + 2) & 3] >> 8) & 0xFF]
            ^ _T3[w[(i + 3) & 3] & 0xFF]
            ^ k[i]
            for i in range(4)
        ]
    k = rkw[nr]
    out = bytearray(16)
    for i in range(4):
        v = (
            (_SBOX_I[(w[i] >> 24) & 0xFF] << 24)
            | (_SBOX_I[(w[(i + 1) & 3] >> 16) & 0xFF] << 16)
            | (_SBOX_I[(w[(i + 2) & 3] >> 8) & 0xFF] << 8)
            | _SBOX_I[w[(i + 3) & 3] & 0xFF]
        ) ^ k[i]
        out[4 * i : 4 * i + 4] = v.to_bytes(4, "big")
    return bytes(out)


def aes_ecb_encrypt(key: bytes, data: bytes) -> bytes:
    return encrypt_blocks(_as_blocks(data).copy(), _key_schedule(key)).tobytes()


def aes_ecb_decrypt(key: bytes, data: bytes) -> bytes:
    return decrypt_blocks(_as_blocks(data).copy(), _key_schedule(key)).tobytes()


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes, pad: bool = True) -> bytes:
    """CBC encryption; with pad=True applies the RFC 2898 §6.1.1-style
    1..16-byte padding the PDF spec mandates (§7.6.2 note on AESV2).
    Sequential across blocks by construction (writer + KDF side), so it
    runs on the scalar T-table kernel instead of paying per-block
    numpy dispatch."""
    if pad:
        k = 16 - (len(data) % 16)
        data = data + bytes([k]) * k
    rkw = _rk_words(_key_schedule(key))
    out = bytearray()
    prev = int.from_bytes(iv, "big")
    for i in range(0, len(data), 16):
        x = int.from_bytes(data[i : i + 16], "big") ^ prev
        ct = _encrypt_block_fast(x.to_bytes(16, "big"), rkw)
        out += ct
        prev = int.from_bytes(ct, "big")
    return bytes(out)


def aes_cbc_decrypt(key: bytes, iv: bytes, data: bytes, unpad: bool = True) -> bytes:
    """CBC decryption of one message (see ``aes_cbc_decrypt_many``),
    with the padding removed by default."""
    _as_blocks(data)  # whole blocks or ValueError
    out = aes_cbc_decrypt_many([key], [iv + data])[0]
    return aes_unpad(out) if unpad and out else out


def aes_unpad(out: bytes) -> bytes:
    """Strip the 1..16-byte CBC padding (§7.6.2); ValueError if bad."""
    k = out[-1]
    if not 1 <= k <= 16 or out[-k:] != bytes([k]) * k:
        raise ValueError("bad AES-CBC padding")
    return out[:-k]


_MANY_BLOCKS = 1 << 16  # blocks per pass: per-block round keys cost 11-15x the data


def aes_cbc_decrypt_many(keys: list[bytes], messages: list[bytes]) -> list[bytes]:
    """CBC decryption of IV-prefixed messages (IV + whole blocks each),
    nothing unpadded: message i under keys[i]. Every block of a batch
    runs in one vectorized pass, each block with its message's round
    keys (one schedule per distinct key), so a document's streams cost
    one pass however many objects and keys they have. Raises
    ValueError for a bad key length or a message that is not IV +
    whole blocks. Data-parallel over blocks: P = D(C) xor the block
    before C (the IV for the first)."""
    out: list[bytes] = []
    batch: list[int] = []
    n_blocks = 0
    for i, m in enumerate(messages):
        if len(m) < 16 or len(m) % 16:
            raise ValueError(f"message length {len(m)} is not an IV plus whole AES blocks")
        batch.append(i)
        n_blocks += len(m) // 16 - 1
        if n_blocks >= _MANY_BLOCKS or i == len(messages) - 1:
            out += _decrypt_batch([keys[j] for j in batch], [messages[j] for j in batch])
            batch, n_blocks = [], 0
    return out


def _decrypt_batch(keys: list[bytes], messages: list[bytes]) -> list[bytes]:
    schedules: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for key in keys:
        if key not in schedules:
            rk = _key_schedule(key)
            schedules[key] = rk, _inner_keys(rk)
    counts = [len(m) // 16 - 1 for m in messages]
    if len(schedules) == 1:
        rk, dk = schedules[keys[0]]
    else:  # each block its message's round keys: (Nr+1, blocks, 16), (Nr-1, blocks, 4)
        rk, dk = (
            np.concatenate([np.repeat(schedules[k][i][:, None], c, axis=1) for k, c in zip(keys, counts)], axis=1)
            for i in (0, 1)
        )
    blocks = np.frombuffer(b"".join(m[16:] for m in messages), dtype=np.uint8).reshape(-1, 16)
    prev = np.frombuffer(b"".join(m[:-16] for m in messages), dtype=np.uint8).reshape(-1, 16)
    plain = (decrypt_blocks(blocks, rk, dk) ^ prev).tobytes()
    out, at = [], 0
    for c in counts:
        out.append(plain[at : at + 16 * c])
        at += 16 * c
    return out
