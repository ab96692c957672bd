#include "crypto/merkle_trie.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace sc::crypto {

util::Bytes TrieProof::encode() const {
  util::Writer w;
  w.raw(leaf_key.span());
  w.raw(leaf_value.span());
  w.u16(static_cast<std::uint16_t>(steps.size()));
  for (const TrieStep& s : steps) {
    w.u16(s.bit);
    w.raw(s.sibling.span());
  }
  return std::move(w).take();
}

std::optional<TrieProof> TrieProof::decode(util::ByteSpan data) {
  util::Reader r(data);
  TrieProof p;
  const auto key = r.raw(32);
  const auto value = r.raw(32);
  const auto count = r.u16();
  if (!key || !value || !count) return std::nullopt;
  p.leaf_key = Hash256::from_span(*key);
  p.leaf_value = Hash256::from_span(*value);
  p.steps.reserve(std::min<std::uint16_t>(*count, 257));
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto bit = r.u16();
    const auto sibling = r.raw(32);
    if (!bit || !sibling) return std::nullopt;
    p.steps.push_back({*bit, Hash256::from_span(*sibling)});
  }
  if (!r.empty()) return std::nullopt;
  return p;
}

Hash256 MerkleTrie::leaf_hash(const Hash256& key, const Hash256& value) {
  std::uint8_t buf[65];
  buf[0] = 0x00;
  std::copy(key.bytes.begin(), key.bytes.end(), buf + 1);
  std::copy(value.bytes.begin(), value.bytes.end(), buf + 33);
  return Sha256::digest({buf, sizeof(buf)});
}

Hash256 MerkleTrie::branch_hash(std::uint16_t bit, const Hash256& left,
                                const Hash256& right) {
  std::uint8_t buf[67];
  buf[0] = 0x01;
  buf[1] = static_cast<std::uint8_t>(bit >> 8);
  buf[2] = static_cast<std::uint8_t>(bit);
  std::copy(left.bytes.begin(), left.bytes.end(), buf + 3);
  std::copy(right.bytes.begin(), right.bytes.end(), buf + 35);
  return Sha256::digest({buf, sizeof(buf)});
}

unsigned MerkleTrie::crit_bit(const Hash256& a, const Hash256& b) {
  for (unsigned byte = 0; byte < 32; ++byte) {
    const std::uint8_t diff = a.bytes[byte] ^ b.bytes[byte];
    if (diff == 0) continue;
    unsigned bit = byte * 8;
    for (std::uint8_t mask = 0x80; mask; mask >>= 1, ++bit)
      if (diff & mask) return bit;
  }
  return 256;
}

std::uint32_t MerkleTrie::new_leaf(const Hash256& key, const Hash256& value) {
  std::uint32_t slot;
  if (!free_leaves_.empty()) {
    slot = free_leaves_.back();
    free_leaves_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(leaves_.size());
    leaves_.emplace_back();
  }
  Leaf& l = leaves_[slot];
  l.key = key;
  l.value = value;
  l.hash = leaf_hash(key, value);
  ++leaf_count_;
  return slot | kLeafTag;
}

std::uint32_t MerkleTrie::new_branch(std::uint16_t bit, std::uint32_t left,
                                     std::uint32_t right) {
  std::uint32_t slot;
  if (!free_branches_.empty()) {
    slot = free_branches_.back();
    free_branches_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(branches_.size());
    branches_.emplace_back();
  }
  Branch& b = branches_[slot];
  b.bit = bit;
  b.left = left;
  b.right = right;
  b.dirty = 1;  // Hashed by the next flush.
  return slot;
}

void MerkleTrie::mark_dirty(const std::vector<std::uint32_t>& path) {
  // Deepest first; a branch that is already dirty has dirty ancestors too.
  for (auto it = path.rbegin(); it != path.rend() && !branch(*it).dirty; ++it)
    branch(*it).dirty = 1;
  stale_ = true;
}

const Hash256& MerkleTrie::root() const {
  if (stale_) flush();
  return root_hash_;
}

void MerkleTrie::flush() const {
  root_hash_ = root_ == kNil ? Hash256{} : settle(root_);
  stale_ = false;
}

const Hash256& MerkleTrie::settle(std::uint32_t idx) const {
  if (is_leaf(idx)) return leaf(idx).hash;
  const Branch& b = branch(idx);
  if (b.dirty) {
    // Clean subtrees return at once, so the recursion visits only the dirty
    // branches and their direct children.
    b.hash = branch_hash(b.bit, settle(b.left), settle(b.right));
    b.dirty = 0;
  }
  return b.hash;
}

void MerkleTrie::clear() {
  leaves_.clear();
  branches_.clear();
  free_leaves_.clear();
  free_branches_.clear();
  root_ = kNil;
  root_hash_ = Hash256{};
  stale_ = false;
  leaf_count_ = 0;
}

void MerkleTrie::set(const Hash256& key, const Hash256& value) {
  if (root_ == kNil) {
    root_ = new_leaf(key, value);
    stale_ = true;
    return;
  }
  path_.clear();
  std::uint32_t idx = root_;
  while (!is_leaf(idx)) {
    path_.push_back(idx);
    const Branch& b = branch(idx);
    idx = bit_of(key, b.bit) ? b.right : b.left;
  }
  Leaf& cand = leaf(idx);
  if (cand.key == key) {
    cand.value = value;
    cand.hash = leaf_hash(key, value);
    mark_dirty(path_);
    return;
  }
  const unsigned diff = crit_bit(key, cand.key);
  assert(diff < 256);
  // The new branch slots in above the first node on the descent whose
  // crit-bit index exceeds `diff` (bits are strictly increasing root ->
  // leaf, so everything past that point is deeper than the divergence).
  std::size_t keep = 0;
  while (keep < path_.size() && branch(path_[keep]).bit < diff) ++keep;
  const std::uint32_t displaced = keep < path_.size() ? path_[keep] : idx;
  const std::uint32_t nl = new_leaf(key, value);
  const std::uint32_t nb =
      bit_of(key, diff) ? new_branch(static_cast<std::uint16_t>(diff), displaced, nl)
                        : new_branch(static_cast<std::uint16_t>(diff), nl, displaced);
  if (keep == 0) {
    root_ = nb;
  } else {
    Branch& parent = branch(path_[keep - 1]);
    (bit_of(key, parent.bit) ? parent.right : parent.left) = nb;
  }
  path_.resize(keep);
  mark_dirty(path_);
}

bool MerkleTrie::erase(const Hash256& key) {
  if (root_ == kNil) return false;
  path_.clear();
  std::uint32_t idx = root_;
  while (!is_leaf(idx)) {
    path_.push_back(idx);
    const Branch& b = branch(idx);
    idx = bit_of(key, b.bit) ? b.right : b.left;
  }
  if (leaf(idx).key != key) return false;
  free_leaf(idx);
  --leaf_count_;
  if (path_.empty()) {
    root_ = kNil;
    stale_ = true;
    return true;
  }
  // Splice the parent branch out, promoting the sibling subtree.
  const std::uint32_t parent_idx = path_.back();
  const Branch& parent = branch(parent_idx);
  const std::uint32_t sibling =
      bit_of(key, parent.bit) ? parent.left : parent.right;
  free_branch(parent_idx);
  path_.pop_back();
  if (path_.empty()) {
    root_ = sibling;
  } else {
    Branch& grandparent = branch(path_.back());
    (bit_of(key, grandparent.bit) ? grandparent.right : grandparent.left) =
        sibling;
  }
  mark_dirty(path_);
  return true;
}

std::optional<Hash256> MerkleTrie::get(const Hash256& key) const {
  if (root_ == kNil) return std::nullopt;
  std::uint32_t idx = root_;
  while (!is_leaf(idx)) {
    const Branch& b = branch(idx);
    idx = bit_of(key, b.bit) ? b.right : b.left;
  }
  const Leaf& l = leaf(idx);
  if (l.key != key) return std::nullopt;
  return l.value;
}

TrieProof MerkleTrie::prove(const Hash256& key) const {
  TrieProof proof;
  if (root_ == kNil) return proof;  // Empty trie: zero leaf, no steps.
  if (stale_) flush();  // Sibling hashes must be the ones root() commits to.
  std::uint32_t idx = root_;
  while (!is_leaf(idx)) {
    const Branch& b = branch(idx);
    const bool right = bit_of(key, b.bit) != 0;
    proof.steps.push_back({b.bit, hash_of(right ? b.left : b.right)});
    idx = right ? b.right : b.left;
  }
  const Leaf& l = leaf(idx);
  proof.leaf_key = l.key;
  proof.leaf_value = l.value;
  std::reverse(proof.steps.begin(), proof.steps.end());
  return proof;
}

namespace {

/// Folds a leaf -> root step chain, checking strictly decreasing bit order
/// and that the leaf sits on the side its key's bits dictate. Returns false
/// on a malformed chain; otherwise writes the reconstructed root.
bool fold_steps(const TrieProof& proof, Hash256* out) {
  Hash256 acc = MerkleTrie::leaf_hash(proof.leaf_key, proof.leaf_value);
  unsigned prev_bit = 256;
  for (const TrieStep& step : proof.steps) {
    if (step.bit >= prev_bit) return false;
    acc = MerkleTrie::bit_of(proof.leaf_key, step.bit)
              ? MerkleTrie::branch_hash(step.bit, step.sibling, acc)
              : MerkleTrie::branch_hash(step.bit, acc, step.sibling);
    prev_bit = step.bit;
  }
  *out = acc;
  return true;
}

}  // namespace

bool MerkleTrie::verify_present(const Hash256& root, const Hash256& key,
                                const Hash256& value, const TrieProof& proof) {
  if (root.is_zero()) return false;
  if (proof.leaf_key != key || proof.leaf_value != value) return false;
  Hash256 reconstructed;
  if (!fold_steps(proof, &reconstructed)) return false;
  return reconstructed == root;
}

bool MerkleTrie::verify_absent(const Hash256& root, const Hash256& key,
                               const TrieProof& proof) {
  if (root.is_zero()) return true;  // Empty trie holds nothing.
  // The proved leaf must be someone else's...
  if (proof.leaf_key == key) return false;
  // ...whose authenticated descent path `key` would follow bit for bit —
  // descent in a crit-bit tree is deterministic, so key's lookup terminates
  // at this foreign leaf and no leaf for `key` can exist under `root`.
  for (const TrieStep& step : proof.steps)
    if (bit_of(key, step.bit) != bit_of(proof.leaf_key, step.bit)) return false;
  Hash256 reconstructed;
  if (!fold_steps(proof, &reconstructed)) return false;
  return reconstructed == root;
}

std::uint32_t MerkleTrie::build_range(
    std::vector<std::pair<Hash256, Hash256>>& kv, std::size_t lo,
    std::size_t hi) {
  if (hi - lo == 1) return new_leaf(kv[lo].first, kv[lo].second);
  // Keys are sorted, so the range's first/last span its whole bit spread.
  const unsigned diff = crit_bit(kv[lo].first, kv[hi - 1].first);
  const auto split = std::partition_point(
      kv.begin() + static_cast<std::ptrdiff_t>(lo),
      kv.begin() + static_cast<std::ptrdiff_t>(hi),
      [&](const auto& entry) { return bit_of(entry.first, diff) == 0; });
  const std::size_t mid = static_cast<std::size_t>(split - kv.begin());
  assert(mid > lo && mid < hi);
  const std::uint32_t left = build_range(kv, lo, mid);
  const std::uint32_t right = build_range(kv, mid, hi);
  return new_branch(static_cast<std::uint16_t>(diff), left, right);
}

MerkleTrie MerkleTrie::build(std::vector<std::pair<Hash256, Hash256>> leaves) {
  MerkleTrie trie;
  if (leaves.empty()) return trie;
  // Stable: duplicate keys must keep their input order so the dedupe pass
  // below keeps the LAST value (matches repeated set() semantics).
  std::stable_sort(leaves.begin(), leaves.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (out > 0 && leaves[out - 1].first == leaves[i].first)
      leaves[out - 1].second = leaves[i].second;
    else
      leaves[out++] = leaves[i];
  }
  leaves.resize(out);
  trie.leaves_.reserve(leaves.size());
  trie.branches_.reserve(leaves.size() > 0 ? leaves.size() - 1 : 0);
  trie.root_ = trie.build_range(leaves, 0, leaves.size());
  trie.flush();  // Every branch is dirty: one hash each, bottom-up.
  return trie;
}

}  // namespace sc::crypto
