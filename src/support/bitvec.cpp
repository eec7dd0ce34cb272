#include "support/bitvec.h"

#include <cassert>
#include <stdexcept>

namespace anvil {

BitVec::BitVec(int width)
    : _width(width)
{
    assert(width >= 0);
    if (!small())
        _wide.assign(static_cast<size_t>(words()), 0);
}

BitVec::BitVec(int width, uint64_t value)
    : BitVec(width)
{
    if (small())
        _w0 = value & smallMask();
    else
        _wide[0] = value;
}

void
BitVec::setWords(const uint64_t *w, int n)
{
    uint64_t *d = data();
    int have = words();
    for (int i = 0; i < have; i++)
        d[i] = i < n ? w[i] : 0;
    normalize();
}

BitVec
BitVec::fromBinary(const std::string &bits)
{
    BitVec v(static_cast<int>(bits.size()));
    for (size_t i = 0; i < bits.size(); i++) {
        char c = bits[bits.size() - 1 - i];
        if (c == '1')
            v.setBit(static_cast<int>(i), true);
        else if (c != '0')
            throw std::invalid_argument("bad binary digit");
    }
    return v;
}

BitVec
BitVec::fromHex(const std::string &hex)
{
    BitVec v(static_cast<int>(hex.size()) * 4);
    for (size_t i = 0; i < hex.size(); i++) {
        char c = hex[hex.size() - 1 - i];
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            throw std::invalid_argument("bad hex digit");
        for (int b = 0; b < 4; b++)
            v.setBit(static_cast<int>(i) * 4 + b, (d >> b) & 1);
    }
    return v;
}

BitVec
BitVec::ones(int width)
{
    BitVec v(width);
    uint64_t *d = v.data();
    for (int i = 0; i < v.words(); i++)
        d[i] = ~0ull;
    v.normalize();
    return v;
}

void
BitVec::normalize()
{
    if (small()) {
        _w0 &= smallMask();
        return;
    }
    int top_bits = _width % 64;
    if (top_bits != 0)
        _wide.back() &= ~0ull >> (64 - top_bits);
}

void
BitVec::setBit(int i, bool v)
{
    assert(i >= 0 && i < _width);
    uint64_t *d = data();
    if (v)
        d[i / 64] |= 1ull << (i % 64);
    else
        d[i / 64] &= ~(1ull << (i % 64));
}

bool
BitVec::any() const
{
    const uint64_t *d = data();
    for (int i = 0; i < words(); i++)
        if (d[i])
            return true;
    return false;
}

BitVec
BitVec::resize(int new_width) const
{
    BitVec v(new_width);
    uint64_t *d = v.data();
    int n = std::min(v.words(), words());
    const uint64_t *s = data();
    for (int i = 0; i < n; i++)
        d[i] = s[i];
    v.normalize();
    return v;
}

BitVec
BitVec::slice(int lo, int n) const
{
    assert(n >= 0);
    BitVec v(n);
    if (n == 0)
        return v;
    if (lo < 0) {
        // Bits below index 0 read as zero (cold path).
        for (int i = 0; i < n; i++)
            v.setBit(i, bit(lo + i));
        return v;
    }
    uint64_t *d = v.data();
    int ws = lo / 64, bs = lo % 64;
    for (int j = 0; j < v.words(); j++) {
        uint64_t w = word(ws + j) >> bs;
        if (bs != 0)
            w |= word(ws + j + 1) << (64 - bs);
        d[j] = w;
    }
    v.normalize();
    return v;
}

BitVec
BitVec::concatHigh(const BitVec &hi) const
{
    BitVec v(_width + hi._width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++)
        d[i] = s[i];
    int ws = _width / 64, bs = _width % 64;
    for (int j = 0; j < hi.words(); j++) {
        d[ws + j] |= hi.word(j) << bs;
        if (bs != 0 && ws + j + 1 < v.words())
            d[ws + j + 1] |= hi.word(j) >> (64 - bs);
    }
    // The low part's top partial word may have been only partially
    // filled by `hi`; the result's own top partial word must be
    // re-masked so the all-bits-above-width-are-zero invariant holds.
    v.normalize();
    return v;
}

BitVec
BitVec::operator~() const
{
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++)
        d[i] = ~s[i];
    v.normalize();
    return v;
}

BitVec
BitVec::operator&(const BitVec &o) const
{
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++)
        d[i] = s[i] & o.word(i);
    v.normalize();
    return v;
}

BitVec
BitVec::operator|(const BitVec &o) const
{
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++)
        d[i] = s[i] | o.word(i);
    v.normalize();
    return v;
}

BitVec
BitVec::operator^(const BitVec &o) const
{
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++)
        d[i] = s[i] ^ o.word(i);
    v.normalize();
    return v;
}

BitVec
BitVec::operator+(const BitVec &o) const
{
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    unsigned __int128 carry = 0;
    for (int i = 0; i < words(); i++) {
        unsigned __int128 sum = carry;
        sum += s[i];
        sum += o.word(i);
        d[i] = static_cast<uint64_t>(sum);
        carry = sum >> 64;
    }
    v.normalize();
    return v;
}

BitVec
BitVec::operator-(const BitVec &o) const
{
    BitVec neg = ~o.resize(_width) + BitVec(_width, 1);
    return *this + neg;
}

BitVec
BitVec::operator*(const BitVec &o) const
{
    // Schoolbook multiplication, truncated to this->width().
    BitVec v(_width);
    uint64_t *d = v.data();
    const uint64_t *s = data();
    for (int i = 0; i < words(); i++) {
        unsigned __int128 carry = 0;
        for (int j = 0; i + j < words(); j++) {
            unsigned __int128 p =
                static_cast<unsigned __int128>(s[i]) * o.word(j);
            p += d[i + j];
            p += carry;
            d[i + j] = static_cast<uint64_t>(p);
            carry = p >> 64;
        }
    }
    v.normalize();
    return v;
}

BitVec
BitVec::operator<<(int n) const
{
    BitVec v(_width);
    if (n < 0 || n >= _width)
        return v;
    uint64_t *d = v.data();
    int ws = n / 64, bs = n % 64;
    for (int j = v.words() - 1; j >= ws; j--) {
        uint64_t w = word(j - ws) << bs;
        if (bs != 0)
            w |= word(j - ws - 1) >> (64 - bs);
        d[j] = w;
    }
    v.normalize();
    return v;
}

BitVec
BitVec::operator>>(int n) const
{
    BitVec v(_width);
    if (n < 0 || n >= _width)
        return v;
    uint64_t *d = v.data();
    int ws = n / 64, bs = n % 64;
    for (int j = 0; j < v.words(); j++) {
        uint64_t w = word(ws + j) >> bs;
        if (bs != 0)
            w |= word(ws + j + 1) << (64 - bs);
        d[j] = w;
    }
    v.normalize();
    return v;
}

bool
BitVec::operator==(const BitVec &o) const
{
    int w = std::max(words(), o.words());
    for (int i = 0; i < w; i++)
        if (word(i) != o.word(i))
            return false;
    return true;
}

bool
BitVec::ult(const BitVec &o) const
{
    int w = std::max(words(), o.words());
    for (int i = w - 1; i >= 0; i--) {
        if (word(i) != o.word(i))
            return word(i) < o.word(i);
    }
    return false;
}

bool
BitVec::ule(const BitVec &o) const
{
    return ult(o) || *this == o;
}

int
BitVec::popcount() const
{
    const uint64_t *d = data();
    int n = 0;
    for (int i = 0; i < words(); i++)
        n += __builtin_popcountll(d[i]);
    return n;
}

std::string
BitVec::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    int nibbles = (_width + 3) / 4;
    std::string s = "0x";
    for (int i = nibbles - 1; i >= 0; i--) {
        int d = 0;
        for (int b = 0; b < 4; b++)
            if (bit(i * 4 + b))
                d |= 1 << b;
        s += digits[d];
    }
    return s;
}

std::string
BitVec::toBinary() const
{
    std::string s;
    for (int i = _width - 1; i >= 0; i--)
        s += bit(i) ? '1' : '0';
    return s;
}

} // namespace anvil
