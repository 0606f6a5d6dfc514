#include "crypto/aes.h"

#include <cstring>

namespace hwsec::crypto {

namespace {

// ---- GF(2^8) arithmetic (AES polynomial x^8+x^4+x^3+x+1) ----------------

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result ^= static_cast<std::uint8_t>(-(b & 1) & a);
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

constexpr std::uint8_t rotl8(std::uint8_t x, int r) {
  return static_cast<std::uint8_t>((x << r) | (x >> (8 - r)));
}

// The S-box is *computed* (inversion + affine map) rather than transcribed,
// and validated against FIPS-197 vectors in the tests.
struct Tables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};
  std::array<std::uint32_t, 256> t0{}, t1{}, t2{}, t3{};

  Tables() {
    for (int x = 0; x < 256; ++x) {
      std::uint8_t inv = 0;
      if (x != 0) {
        for (int y = 1; y < 256; ++y) {
          if (gf_mul(static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y)) == 1) {
            inv = static_cast<std::uint8_t>(y);
            break;
          }
        }
      }
      const std::uint8_t s = static_cast<std::uint8_t>(
          inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63);
      sbox[static_cast<std::size_t>(x)] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(x);

      const std::uint8_t m1 = s;
      const std::uint8_t m2 = xtime(s);
      const std::uint8_t m3 = static_cast<std::uint8_t>(m2 ^ m1);
      const std::uint32_t t = (static_cast<std::uint32_t>(m2) << 24) |
                              (static_cast<std::uint32_t>(m1) << 16) |
                              (static_cast<std::uint32_t>(m1) << 8) | m3;
      t0[static_cast<std::size_t>(x)] = t;
      t1[static_cast<std::size_t>(x)] = (t >> 8) | (t << 24);
      t2[static_cast<std::size_t>(x)] = (t >> 16) | (t << 16);
      t3[static_cast<std::size_t>(x)] = (t >> 24) | (t << 8);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xFF]) << 8) | s[w & 0xFF];
}

constexpr std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

// MixColumns on one column (used by the non-T-table variants).
std::uint32_t mix_column(std::uint32_t col) {
  const std::uint8_t a0 = static_cast<std::uint8_t>(col >> 24);
  const std::uint8_t a1 = static_cast<std::uint8_t>(col >> 16);
  const std::uint8_t a2 = static_cast<std::uint8_t>(col >> 8);
  const std::uint8_t a3 = static_cast<std::uint8_t>(col);
  const std::uint8_t b0 = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
  const std::uint8_t b1 = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
  const std::uint8_t b2 = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
  const std::uint8_t b3 = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  return (static_cast<std::uint32_t>(b0) << 24) | (static_cast<std::uint32_t>(b1) << 16) |
         (static_cast<std::uint32_t>(b2) << 8) | b3;
}

}  // namespace

const std::array<std::uint8_t, 256>& aes_sbox() { return tables().sbox; }
const std::array<std::uint8_t, 256>& aes_inv_sbox() { return tables().inv_sbox; }

AesKeySchedule expand_key(const AesKey& key) {
  AesKeySchedule ks;
  for (int i = 0; i < 4; ++i) {
    ks.words[static_cast<std::size_t>(i)] = load_be32(key.data() + 4 * i);
  }
  std::uint8_t rcon = 0x01;
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = ks.words[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = xtime(rcon);
    }
    ks.words[static_cast<std::size_t>(i)] = ks.words[static_cast<std::size_t>(i - 4)] ^ temp;
  }
  return ks;
}

// ---- AesTTable ------------------------------------------------------------

AesTTable::AesTTable(const AesKey& key, Instrumentation instr)
    : schedule_(expand_key(key)), instr_(std::move(instr)) {}

AesBlock AesTTable::encrypt(const AesBlock& plaintext) const {
  return encrypt_with_fault_round(plaintext, 0);
}

AesBlock AesTTable::encrypt_with_fault_round(const AesBlock& plaintext,
                                             std::uint32_t fault_round) const {
  const Tables& tb = tables();
  std::uint32_t s0 = load_be32(plaintext.data() + 0) ^ schedule_.words[0];
  std::uint32_t s1 = load_be32(plaintext.data() + 4) ^ schedule_.words[1];
  std::uint32_t s2 = load_be32(plaintext.data() + 8) ^ schedule_.words[2];
  std::uint32_t s3 = load_be32(plaintext.data() + 12) ^ schedule_.words[3];

  auto lookup = [&](const std::array<std::uint32_t, 256>& table, std::uint32_t table_id,
                    std::uint32_t index) {
    instr_.do_touch(table_id, index);
    // Power model: the S-box output byte is the classic CPA target.
    instr_.do_leak(tb.sbox[index]);
    return table[index];
  };

  // Offer the whole state to the fault hook at the targeted round
  // boundary: a glitch can land in any word, so DFA observations cover
  // all 16 byte positions.
  auto maybe_fault = [&](std::uint32_t round) {
    if (fault_round != 0 && round == fault_round) {
      s0 = instr_.do_fault(s0);
      s1 = instr_.do_fault(s1);
      s2 = instr_.do_fault(s2);
      s3 = instr_.do_fault(s3);
    }
  };

  for (std::uint32_t round = 1; round <= 9; ++round) {
    maybe_fault(round);
    const std::uint32_t n0 = lookup(tb.t0, kT0, s0 >> 24) ^ lookup(tb.t1, kT1, (s1 >> 16) & 0xFF) ^
                             lookup(tb.t2, kT2, (s2 >> 8) & 0xFF) ^
                             lookup(tb.t3, kT3, s3 & 0xFF) ^ schedule_.words[4 * round + 0];
    const std::uint32_t n1 = lookup(tb.t0, kT0, s1 >> 24) ^ lookup(tb.t1, kT1, (s2 >> 16) & 0xFF) ^
                             lookup(tb.t2, kT2, (s3 >> 8) & 0xFF) ^
                             lookup(tb.t3, kT3, s0 & 0xFF) ^ schedule_.words[4 * round + 1];
    const std::uint32_t n2 = lookup(tb.t0, kT0, s2 >> 24) ^ lookup(tb.t1, kT1, (s3 >> 16) & 0xFF) ^
                             lookup(tb.t2, kT2, (s0 >> 8) & 0xFF) ^
                             lookup(tb.t3, kT3, s1 & 0xFF) ^ schedule_.words[4 * round + 2];
    const std::uint32_t n3 = lookup(tb.t0, kT0, s3 >> 24) ^ lookup(tb.t1, kT1, (s0 >> 16) & 0xFF) ^
                             lookup(tb.t2, kT2, (s1 >> 8) & 0xFF) ^
                             lookup(tb.t3, kT3, s2 & 0xFF) ^ schedule_.words[4 * round + 3];
    s0 = n0;
    s1 = n1;
    s2 = n2;
    s3 = n3;
  }

  // Final round (no MixColumns), S-box byte lookups.
  maybe_fault(10);
  auto sb = [&](std::uint32_t index) {
    instr_.do_touch(kSboxTable, index);
    instr_.do_leak(tb.sbox[index]);
    return static_cast<std::uint32_t>(tb.sbox[index]);
  };
  const std::uint32_t o0 = (sb(s0 >> 24) << 24) | (sb((s1 >> 16) & 0xFF) << 16) |
                           (sb((s2 >> 8) & 0xFF) << 8) | sb(s3 & 0xFF);
  const std::uint32_t o1 = (sb(s1 >> 24) << 24) | (sb((s2 >> 16) & 0xFF) << 16) |
                           (sb((s3 >> 8) & 0xFF) << 8) | sb(s0 & 0xFF);
  const std::uint32_t o2 = (sb(s2 >> 24) << 24) | (sb((s3 >> 16) & 0xFF) << 16) |
                           (sb((s0 >> 8) & 0xFF) << 8) | sb(s1 & 0xFF);
  const std::uint32_t o3 = (sb(s3 >> 24) << 24) | (sb((s0 >> 16) & 0xFF) << 16) |
                           (sb((s1 >> 8) & 0xFF) << 8) | sb(s2 & 0xFF);

  AesBlock out;
  store_be32(out.data() + 0, o0 ^ schedule_.words[40]);
  store_be32(out.data() + 4, o1 ^ schedule_.words[41]);
  store_be32(out.data() + 8, o2 ^ schedule_.words[42]);
  store_be32(out.data() + 12, o3 ^ schedule_.words[43]);
  return out;
}

// ---- AesConstantTime --------------------------------------------------------

namespace {

// S-box computed arithmetically: x^254 by fixed square-and-multiply, then
// the affine map. No table lookup, no data-dependent branch — every input
// executes the identical operation sequence.
std::uint8_t sbox_arithmetic(std::uint8_t x) {
  std::uint8_t result = 1;
  // 254 = 0b11111110, fixed 8-iteration ladder.
  for (int bit = 7; bit >= 0; --bit) {
    result = gf_mul(result, result);
    const std::uint8_t multiplied = gf_mul(result, x);
    // Constant-time select (mask arithmetic instead of a branch).
    const std::uint8_t take = static_cast<std::uint8_t>(-((254 >> bit) & 1));
    result = static_cast<std::uint8_t>((multiplied & take) | (result & ~take));
  }
  return static_cast<std::uint8_t>(result ^ rotl8(result, 1) ^ rotl8(result, 2) ^
                                   rotl8(result, 3) ^ rotl8(result, 4) ^ 0x63);
}

// Shared plain (column-word) round structure for the non-T-table variants.
struct ColumnState {
  std::uint32_t s[4];

  void load(const AesBlock& in) {
    for (int i = 0; i < 4; ++i) {
      s[i] = load_be32(in.data() + 4 * i);
    }
  }
  AesBlock store() const {
    AesBlock out;
    for (int i = 0; i < 4; ++i) {
      store_be32(out.data() + 4 * i, s[i]);
    }
    return out;
  }
  std::uint8_t byte(int col, int row) const {
    return static_cast<std::uint8_t>(s[col] >> (24 - 8 * row));
  }
  void set_byte(int col, int row, std::uint8_t v) {
    const int shift = 24 - 8 * row;
    s[col] = (s[col] & ~(0xFFu << shift)) | (static_cast<std::uint32_t>(v) << shift);
  }
  void shift_rows() {
    for (int row = 1; row < 4; ++row) {
      std::uint8_t tmp[4];
      for (int col = 0; col < 4; ++col) {
        tmp[col] = byte((col + row) % 4, row);
      }
      for (int col = 0; col < 4; ++col) {
        set_byte(col, row, tmp[col]);
      }
    }
  }
  void mix_columns() {
    for (auto& col : s) {
      col = mix_column(col);
    }
  }
  void add_round_key(const AesKeySchedule& ks, std::uint32_t round) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      s[i] ^= ks.words[4 * round + i];
    }
  }
};

}  // namespace

AesConstantTime::AesConstantTime(const AesKey& key, Instrumentation instr)
    : schedule_(expand_key(key)), instr_(std::move(instr)) {}

AesBlock AesConstantTime::encrypt(const AesBlock& plaintext) const {
  ColumnState st;
  st.load(plaintext);
  st.add_round_key(schedule_, 0);
  for (std::uint32_t round = 1; round <= 10; ++round) {
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        const std::uint8_t out = sbox_arithmetic(st.byte(col, row));
        // No touch hook: no memory lookup exists. The value still leaks
        // through power (constant-time is not a DPA countermeasure).
        instr_.do_leak(out);
        st.set_byte(col, row, out);
      }
    }
    st.shift_rows();
    if (round != 10) {
      st.mix_columns();
    }
    st.add_round_key(schedule_, round);
  }
  return st.store();
}

// ---- AesMasked ----------------------------------------------------------------

AesMasked::AesMasked(const AesKey& key, std::uint64_t rng_seed, Instrumentation instr)
    : schedule_(expand_key(key)), instr_(std::move(instr)), rng_state_(rng_seed | 1) {}

std::uint8_t AesMasked::next_mask_byte() {
  // splitmix64 step; quality is irrelevant for correctness, only
  // unpredictability-per-trace matters for the first-order masking claim.
  rng_state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::uint8_t>(z >> 56);
}

AesBlock AesMasked::encrypt(const AesBlock& plaintext) {
  const auto& sbox = tables().sbox;

  // Fresh input/output S-box masks per block; recompute the masked S-box:
  // sm[x ^ m_in] = S[x] ^ m_out. Loading the masks into working registers
  // leaks their Hamming weight like any other register write — the
  // second-order attack (sca/second_order.h) combines exactly this sample
  // with the masked S-box outputs. First-order security is unaffected:
  // each sample alone is independent of the data.
  const std::uint8_t m_in = next_mask_byte();
  const std::uint8_t m_out = next_mask_byte();
  instr_.do_leak(m_in);
  instr_.do_leak(m_out);
  std::array<std::uint8_t, 256> masked_sbox;
  for (int x = 0; x < 256; ++x) {
    masked_sbox[static_cast<std::size_t>(x ^ m_in)] =
        static_cast<std::uint8_t>(sbox[static_cast<std::size_t>(x)] ^ m_out);
  }

  // Masked state + mask state, processed in lockstep: linear layers apply
  // to both, so masked ^ mask == real at every point.
  ColumnState masked;
  ColumnState mask{};
  masked.load(plaintext);
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 4; ++row) {
      const std::uint8_t m = next_mask_byte();
      mask.set_byte(col, row, m);
      masked.set_byte(col, row, static_cast<std::uint8_t>(masked.byte(col, row) ^ m));
    }
  }
  masked.add_round_key(schedule_, 0);

  for (std::uint32_t round = 1; round <= 10; ++round) {
    // Re-mask to m_in so the masked S-box applies, then substitute.
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        const std::uint8_t remasked = static_cast<std::uint8_t>(
            masked.byte(col, row) ^ mask.byte(col, row) ^ m_in);
        const std::uint8_t substituted = masked_sbox[remasked];
        // Every observable intermediate carries a random mask: the leak
        // hook sees S[x] ^ m_out, uncorrelated with S[x].
        instr_.do_leak(substituted);
        masked.set_byte(col, row, substituted);
        mask.set_byte(col, row, m_out);
      }
    }
    masked.shift_rows();
    mask.shift_rows();
    if (round != 10) {
      masked.mix_columns();
      mask.mix_columns();
    }
    masked.add_round_key(schedule_, round);
  }

  // Unmask.
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 4; ++row) {
      masked.set_byte(col, row,
                      static_cast<std::uint8_t>(masked.byte(col, row) ^ mask.byte(col, row)));
    }
  }
  return masked.store();
}

}  // namespace hwsec::crypto
