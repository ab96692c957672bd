#include "symex/solver.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace sc::symex {

namespace {

constexpr std::uint32_t kMaxFlips = 2048;     ///< Model-search iterations.
constexpr unsigned kIntervalRounds = 4;       ///< Refinement fixpoint bound.
constexpr std::uint64_t kSearchSeed = 0x5eedc0de;  ///< Model-search xorshift.

// ---------------------------------------------------------------------------
// Shared helpers.

U256 width_mask(unsigned width) {
  if (width >= 256) return U256::max_value();
  return (U256::one() << width) - U256::one();
}

bool add_overflows(const U256& a, const U256& b) { return a + b < a; }

const U256& umin(const U256& a, const U256& b) { return a < b ? a : b; }
const U256& umax(const U256& a, const U256& b) { return a < b ? b : a; }

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// Evaluates every literal under `model` with ONE shared memo (the literals
/// of a path condition share most of their subterms).
struct BatchEval {
  const Assignment& model;
  std::unordered_map<std::uint32_t, U256> memo;

  explicit BatchEval(const Assignment& m) : model(m) {}

  U256 eval(ExprRef e) {
    switch (e->kind) {
      case ExprKind::kConst: return e->value;
      case ExprKind::kVar: return model.value_of(e->var);
      default: break;
    }
    const auto it = memo.find(e->id);
    if (it != memo.end()) return it->second;
    U256 r = e->b ? eval_binary(e->kind, eval(e->a), eval(e->b))
                  : eval_unary(e->kind, eval(e->a));
    memo.emplace(e->id, r);
    return r;
  }

  bool satisfied(const Literal& lit) {
    return eval(lit.expr).is_zero() != lit.truthy;
  }
};

std::size_t count_satisfied(const std::vector<Literal>& lits,
                            const Assignment& model) {
  BatchEval be(model);
  std::size_t n = 0;
  for (const Literal& l : lits)
    if (be.satisfied(l)) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Layer 1: normalization.
//
// Output literals are IMPLIED by the input literal (equivalent except for the
// truthy-And split over non-boolean operands), so an UNSAT verdict on the
// normalized set transfers to the original set. SAT models are always
// validated against the originals.

void normalize_into(ExprRef e, bool truthy, std::vector<Literal>& out,
                    bool& contradiction, int depth) {
  if (e->is_const()) {
    if (e->value.is_zero() == truthy) contradiction = true;
    return;
  }
  if (depth < 32) {
    if (e->kind == ExprKind::kIsZero) {
      normalize_into(e->a, !truthy, out, contradiction, depth + 1);
      return;
    }
    // a & b != 0  implies  a != 0 and b != 0 (exact for booleans).
    if (e->kind == ExprKind::kAnd && truthy) {
      normalize_into(e->a, true, out, contradiction, depth + 1);
      normalize_into(e->b, true, out, contradiction, depth + 1);
      return;
    }
    // a | b == 0  iff  a == 0 and b == 0 (exact for all words).
    if (e->kind == ExprKind::kOr && !truthy) {
      normalize_into(e->a, false, out, contradiction, depth + 1);
      normalize_into(e->b, false, out, contradiction, depth + 1);
      return;
    }
  }
  out.push_back({e, truthy});
}

std::vector<Literal> normalize(const std::vector<Literal>& in,
                               bool& contradiction) {
  std::vector<Literal> out;
  for (const Literal& lit : in)
    normalize_into(lit.expr, lit.truthy, out, contradiction, 0);
  // Dedup and detect opposite-polarity pairs on the same term.
  std::unordered_map<ExprRef, bool> seen;
  std::vector<Literal> dedup;
  for (const Literal& lit : out) {
    const auto it = seen.find(lit.expr);
    if (it == seen.end()) {
      seen.emplace(lit.expr, lit.truthy);
      dedup.push_back(lit);
    } else if (it->second != lit.truthy) {
      contradiction = true;
    }
  }
  return dedup;
}

// ---------------------------------------------------------------------------
// Layer 2: equality reasoning (union-find + substitution through the pool).

struct UnionFind {
  std::unordered_map<ExprRef, ExprRef> parent;

  ExprRef find(ExprRef e) {
    ExprRef root = e;
    while (true) {
      const auto it = parent.find(root);
      if (it == parent.end()) break;
      root = it->second;
    }
    while (e != root) {
      ExprRef next = parent[e];
      parent[e] = root;
      e = next;
    }
    return root;
  }

  /// Merges the classes of a and b. Prefers a constant representative.
  /// Returns false on a constant/constant clash (=> UNSAT).
  bool merge(ExprRef a, ExprRef b) {
    a = find(a);
    b = find(b);
    if (a == b) return true;
    if (a->is_const() && b->is_const()) return a->value == b->value;
    if (b->is_const()) std::swap(a, b);
    parent[b] = a;
    return true;
  }
};

struct EqualityResult {
  bool contradiction = false;
  UnionFind uf;
  std::vector<std::pair<ExprRef, ExprRef>> diseqs;
};

EqualityResult equality_layer(const std::vector<Literal>& lits,
                              const ExprPool& pool) {
  EqualityResult r;
  ExprRef zero = pool.zero();
  ExprRef one = pool.one();
  for (const Literal& lit : lits) {
    ExprRef e = lit.expr;
    if (lit.truthy) {
      if (e->kind == ExprKind::kEq) {
        if (!r.uf.merge(e->a, e->b)) {
          r.contradiction = true;
          return r;
        }
        continue;
      }
      if (e->is_boolean()) {
        if (!r.uf.merge(e, one)) {
          r.contradiction = true;
          return r;
        }
      } else {
        r.diseqs.emplace_back(e, zero);
      }
    } else {
      if (e->kind == ExprKind::kEq) r.diseqs.emplace_back(e->a, e->b);
      if (!r.uf.merge(e, zero)) {
        r.contradiction = true;
        return r;
      }
    }
  }
  for (const auto& [a, b] : r.diseqs) {
    ExprRef ra = r.uf.find(a);
    ExprRef rb = r.uf.find(b);
    if (ra == rb || (ra->is_const() && rb->is_const() && ra->value == rb->value)) {
      r.contradiction = true;
      return r;
    }
  }
  return r;
}

/// Rebuilds `e` with every subterm whose equivalence class has a constant
/// representative replaced by that constant. Folding in the pool then
/// propagates the constants upward (a poor man's congruence closure).
ExprRef substitute(ExprRef e, UnionFind& uf, ExprPool& pool,
                   std::unordered_map<ExprRef, ExprRef>& memo) {
  ExprRef rep = uf.find(e);
  if (rep->is_const()) return rep;
  if (e->is_const() || e->is_var()) return e;
  const auto it = memo.find(e);
  if (it != memo.end()) return it->second;
  ExprRef a = substitute(e->a, uf, pool, memo);
  ExprRef out;
  if (e->b) {
    ExprRef b = substitute(e->b, uf, pool, memo);
    out = pool.binary(e->kind, a, b);
  } else {
    out = pool.unary(e->kind, a);
  }
  // The rebuilt term may itself be pinned to a constant.
  ExprRef out_rep = uf.find(out);
  if (out_rep->is_const()) out = out_rep;
  memo.emplace(e, out);
  return out;
}

// ---------------------------------------------------------------------------
// Layer 3: interval propagation.

struct Interval {
  U256 lo;
  U256 hi;

  static Interval full() { return {U256::zero(), U256::max_value()}; }
  static Interval boolean() { return {U256::zero(), U256::one()}; }
  static Interval point(const U256& v) { return {v, v}; }
  bool is_point() const { return lo == hi; }
  bool contains_zero() const { return lo.is_zero(); }
};

/// Intersects, returning false on an empty result.
bool intersect(Interval& x, const Interval& y) {
  x.lo = umax(x.lo, y.lo);
  x.hi = umin(x.hi, y.hi);
  return !(x.hi < x.lo);
}

struct IntervalCtx {
  const ExprPool& pool;
  /// Literal-driven refinements, persisted across fixpoint rounds.
  std::unordered_map<ExprRef, Interval> refined;
  /// Per-round bottom-up memo.
  std::unordered_map<ExprRef, Interval> memo;
  bool empty = false;  ///< Some intersection came up empty => UNSAT.

  Interval compute(ExprRef e) {
    const auto mit = memo.find(e);
    if (mit != memo.end()) return mit->second;
    Interval iv = structural(e);
    const auto rit = refined.find(e);
    if (rit != refined.end() && !intersect(iv, rit->second)) empty = true;
    memo.emplace(e, iv);
    return iv;
  }

  Interval structural(ExprRef e) {
    switch (e->kind) {
      case ExprKind::kConst:
        return Interval::point(e->value);
      case ExprKind::kVar:
        return {U256::zero(), width_mask(pool.var_info(e->var).width)};
      default:
        break;
    }
    Interval a = compute(e->a);
    Interval b = e->b ? compute(e->b) : Interval::full();
    switch (e->kind) {
      case ExprKind::kAdd:
        if (!add_overflows(a.hi, b.hi)) return {a.lo + b.lo, a.hi + b.hi};
        return Interval::full();
      case ExprKind::kSub:
        if (!(a.lo < b.hi)) return {a.lo - b.hi, a.hi - b.lo};
        return Interval::full();
      case ExprKind::kMul: {
        const crypto::U512 wide = U256::mul_wide(a.hi, b.hi);
        if (wide.high().is_zero())
          return {U256::mul_wide(a.lo, b.lo).low(), wide.low()};
        return Interval::full();
      }
      case ExprKind::kDiv:
        // a / b <= a, and b == 0 yields 0.
        return {U256::zero(), a.hi};
      case ExprKind::kMod:
        return {U256::zero(),
                b.hi.is_zero() ? U256::zero() : umin(a.hi, b.hi - U256::one())};
      case ExprKind::kAnd:
        return {U256::zero(), umin(a.hi, b.hi)};
      case ExprKind::kOr: {
        const unsigned bits = std::max(a.hi.bit_length(), b.hi.bit_length());
        return {umax(a.lo, b.lo), width_mask(bits)};
      }
      case ExprKind::kXor: {
        const unsigned bits = std::max(a.hi.bit_length(), b.hi.bit_length());
        return {U256::zero(), width_mask(bits)};
      }
      case ExprKind::kNot:
        return {~a.hi, ~a.lo};
      case ExprKind::kShl:
        if (a.is_point()) {
          if (a.lo.bit_length() > 9) return Interval::point(U256::zero());
          const unsigned c = static_cast<unsigned>(a.lo.low64());
          if (c < 256 && b.hi.bit_length() + c <= 256)
            return {b.lo << c, b.hi << c};
        }
        return Interval::full();
      case ExprKind::kShr:
        if (a.is_point()) {
          if (a.lo.bit_length() > 9) return Interval::point(U256::zero());
          const unsigned c = static_cast<unsigned>(a.lo.low64());
          if (c >= 256) return Interval::point(U256::zero());
          return {b.lo >> c, b.hi >> c};
        }
        return {U256::zero(), b.hi};
      case ExprKind::kByte:
        return {U256::zero(), U256{255}};
      case ExprKind::kLt:
        if (a.hi < b.lo) return Interval::point(U256::one());
        if (!(a.lo < b.hi)) return Interval::point(U256::zero());
        return Interval::boolean();
      case ExprKind::kGt:
        if (b.hi < a.lo) return Interval::point(U256::one());
        if (!(b.lo < a.hi)) return Interval::point(U256::zero());
        return Interval::boolean();
      case ExprKind::kEq:
        if (a.is_point() && b.is_point())
          return Interval::point(a.lo == b.lo ? U256::one() : U256::zero());
        if (a.hi < b.lo || b.hi < a.lo) return Interval::point(U256::zero());
        return Interval::boolean();
      case ExprKind::kSLt:
      case ExprKind::kSGt:
        return Interval::boolean();
      case ExprKind::kIsZero:
        if (!a.contains_zero()) return Interval::point(U256::zero());
        if (a.is_point()) return Interval::point(U256::one());
        return Interval::boolean();
      default:
        return Interval::full();
    }
  }

  /// Pushes a refined range down through invertible shapes to the leaves.
  void refine(ExprRef e, Interval iv, int depth) {
    if (empty || depth > 16) return;
    auto [it, inserted] = refined.emplace(e, iv);
    if (!inserted) {
      Interval merged = it->second;
      if (!intersect(merged, iv)) {
        empty = true;
        return;
      }
      if (merged.lo == it->second.lo && merged.hi == it->second.hi) return;
      it->second = merged;
      iv = merged;
    }
    switch (e->kind) {
      case ExprKind::kAdd:
        if (e->b->is_const() && !add_overflows(iv.hi, ~e->b->value)) {
          // x + c in [lo, hi] => x in [lo - c, hi - c] when the original
          // addition cannot wrap for the refined range.
          if (!(iv.lo < e->b->value))
            refine(e->a, {iv.lo - e->b->value, iv.hi - e->b->value}, depth + 1);
        } else if (e->a->is_const() && !(iv.lo < e->a->value)) {
          refine(e->b, {iv.lo - e->a->value, iv.hi - e->a->value}, depth + 1);
        }
        return;
      case ExprKind::kSub:
        if (e->b->is_const() && !add_overflows(iv.hi, e->b->value)) {
          refine(e->a, {iv.lo + e->b->value, iv.hi + e->b->value}, depth + 1);
        }
        return;
      case ExprKind::kShr:
        // Shr(c, x) in [lo, hi] => x in [lo << c, (hi << c) | mask(c)].
        if (e->a->is_const() && e->a->value.bit_length() <= 9) {
          const unsigned c = static_cast<unsigned>(e->a->value.low64());
          if (c < 256 && iv.hi.bit_length() + c <= 256)
            refine(e->b, {iv.lo << c, (iv.hi << c) | width_mask(c)}, depth + 1);
        }
        return;
      default:
        return;
    }
  }
};

/// Runs bounded interval fixpoint over the normalized literals. Returns
/// kUnsat when a literal is interval-infeasible.
SolveStatus interval_layer(const std::vector<Literal>& lits,
                           const ExprPool& pool) {
  IntervalCtx ctx{pool, {}, {}, false};
  for (unsigned round = 0; round < kIntervalRounds; ++round) {
    ctx.memo.clear();
    for (const Literal& lit : lits) {
      Interval iv = ctx.compute(lit.expr);
      if (ctx.empty) return SolveStatus::kUnsat;
      if (lit.truthy) {
        if (iv.is_point() && iv.lo.is_zero()) return SolveStatus::kUnsat;
      } else {
        if (!iv.contains_zero()) return SolveStatus::kUnsat;
      }
    }
    // Literal-driven refinement for the next round.
    for (const Literal& lit : lits) {
      ExprRef e = lit.expr;
      if (!lit.truthy) {
        ctx.refine(e, Interval::point(U256::zero()), 0);
        if (e->kind == ExprKind::kLt) {
          // !(a < b) => a >= b: meet a.lo up, b.hi down.
          Interval b = ctx.compute(e->b);
          ctx.refine(e->a, {b.lo, U256::max_value()}, 0);
          Interval a = ctx.compute(e->a);
          ctx.refine(e->b, {U256::zero(), a.hi}, 0);
        } else if (e->kind == ExprKind::kGt) {
          Interval b = ctx.compute(e->b);
          ctx.refine(e->a, {U256::zero(), b.hi}, 0);
          Interval a = ctx.compute(e->a);
          ctx.refine(e->b, {a.lo, U256::max_value()}, 0);
        }
        continue;
      }
      switch (e->kind) {
        case ExprKind::kEq: {
          Interval a = ctx.compute(e->a);
          Interval b = ctx.compute(e->b);
          Interval meet = a;
          if (!intersect(meet, b)) return SolveStatus::kUnsat;
          ctx.refine(e->a, meet, 0);
          ctx.refine(e->b, meet, 0);
          break;
        }
        case ExprKind::kLt: {
          Interval b = ctx.compute(e->b);
          if (b.hi.is_zero()) return SolveStatus::kUnsat;
          ctx.refine(e->a, {U256::zero(), b.hi - U256::one()}, 0);
          Interval a = ctx.compute(e->a);
          if (a.lo == U256::max_value()) return SolveStatus::kUnsat;
          ctx.refine(e->b, {a.lo + U256::one(), U256::max_value()}, 0);
          break;
        }
        case ExprKind::kGt: {
          Interval b = ctx.compute(e->b);
          if (b.lo == U256::max_value()) return SolveStatus::kUnsat;
          ctx.refine(e->a, {b.lo + U256::one(), U256::max_value()}, 0);
          Interval a = ctx.compute(e->a);
          if (a.hi.is_zero()) return SolveStatus::kUnsat;
          ctx.refine(e->b, {U256::zero(), a.hi - U256::one()}, 0);
          break;
        }
        default:
          if (!e->is_boolean())
            ctx.refine(e, {U256::one(), U256::max_value()}, 0);
          break;
      }
      if (ctx.empty) return SolveStatus::kUnsat;
    }
  }
  return SolveStatus::kUnknown;
}

// ---------------------------------------------------------------------------
// Layer 4: model search with algebraic inversion.

struct Candidate {
  std::uint32_t var;
  U256 value;
};

struct Inverter {
  const ExprPool& pool;
  BatchEval& be;
  std::vector<Candidate>& out;

  void push(ExprRef var_node, const U256& v) {
    const VarInfo& info = pool.var_info(var_node->var);
    if (info.width < 256 && width_mask(info.width) < v) return;
    if (out.size() < 64) out.push_back({var_node->var, v});
  }

  /// Proposes variable assignments that would make `e` evaluate to `target`.
  void invert(ExprRef e, const U256& target, int depth) {
    if (depth > 32 || out.size() >= 64) return;
    switch (e->kind) {
      case ExprKind::kConst:
        return;
      case ExprKind::kVar:
        push(e, target);
        return;
      case ExprKind::kAdd:
        invert(e->a, target - be.eval(e->b), depth + 1);
        invert(e->b, target - be.eval(e->a), depth + 1);
        return;
      case ExprKind::kSub:
        invert(e->a, target + be.eval(e->b), depth + 1);
        invert(e->b, be.eval(e->a) - target, depth + 1);
        return;
      case ExprKind::kXor:
        invert(e->a, target ^ be.eval(e->b), depth + 1);
        invert(e->b, target ^ be.eval(e->a), depth + 1);
        return;
      case ExprKind::kNot:
        invert(e->a, ~target, depth + 1);
        return;
      case ExprKind::kEq: {
        const U256 va = be.eval(e->a);
        const U256 vb = be.eval(e->b);
        if (!target.is_zero()) {
          invert(e->a, vb, depth + 1);
          invert(e->b, va, depth + 1);
        } else {
          invert(e->a, vb + U256::one(), depth + 1);
          invert(e->b, va + U256::one(), depth + 1);
        }
        return;
      }
      case ExprKind::kIsZero:
        invert(e->a, target.is_zero() ? U256::one() : U256::zero(), depth + 1);
        return;
      case ExprKind::kLt:
      case ExprKind::kSLt: {
        const U256 va = be.eval(e->a);
        const U256 vb = be.eval(e->b);
        if (!target.is_zero()) {
          if (!vb.is_zero()) invert(e->a, vb - U256::one(), depth + 1);
          if (va != U256::max_value()) invert(e->b, va + U256::one(), depth + 1);
          invert(e->a, U256::zero(), depth + 1);
        } else {
          invert(e->a, vb, depth + 1);
          invert(e->b, U256::zero(), depth + 1);
          invert(e->b, va, depth + 1);
        }
        return;
      }
      case ExprKind::kGt:
      case ExprKind::kSGt: {
        const U256 va = be.eval(e->a);
        const U256 vb = be.eval(e->b);
        if (!target.is_zero()) {
          if (!va.is_zero()) invert(e->b, va - U256::one(), depth + 1);
          if (vb != U256::max_value()) invert(e->a, vb + U256::one(), depth + 1);
          invert(e->b, U256::zero(), depth + 1);
        } else {
          invert(e->a, vb, depth + 1);
          invert(e->a, U256::zero(), depth + 1);
          invert(e->b, va, depth + 1);
        }
        return;
      }
      case ExprKind::kAnd: {
        // Through a constant mask: keep the other bits, overwrite the masked.
        if (e->b->is_const() && (target & ~e->b->value).is_zero())
          invert(e->a, (be.eval(e->a) & ~e->b->value) | target, depth + 1);
        if (e->a->is_const() && (target & ~e->a->value).is_zero())
          invert(e->b, (be.eval(e->b) & ~e->a->value) | target, depth + 1);
        return;
      }
      case ExprKind::kOr: {
        if (e->b->is_const() && (e->b->value & ~target).is_zero())
          invert(e->a, target & ~e->b->value, depth + 1);
        if (e->a->is_const() && (e->a->value & ~target).is_zero())
          invert(e->b, target & ~e->a->value, depth + 1);
        return;
      }
      case ExprKind::kShl: {
        if (e->a->is_const() && e->a->value.bit_length() <= 9) {
          const unsigned c = static_cast<unsigned>(e->a->value.low64());
          if (c < 256 && ((target >> c) << c) == target)
            invert(e->b, target >> c, depth + 1);
        }
        return;
      }
      case ExprKind::kShr: {
        if (e->a->is_const() && e->a->value.bit_length() <= 9) {
          const unsigned c = static_cast<unsigned>(e->a->value.low64());
          if (c < 256 && target.bit_length() + c <= 256)
            invert(e->b, target << c, depth + 1);
        }
        return;
      }
      case ExprKind::kMul: {
        if (e->a->is_const() && !e->a->value.is_zero()) {
          U256 rem;
          const U256 q = U256::div(target, e->a->value, &rem);
          if (rem.is_zero()) invert(e->b, q, depth + 1);
        }
        if (e->b->is_const() && !e->b->value.is_zero()) {
          U256 rem;
          const U256 q = U256::div(target, e->b->value, &rem);
          if (rem.is_zero()) invert(e->a, q, depth + 1);
        }
        return;
      }
      case ExprKind::kDiv: {
        if (e->b->is_const() && !e->b->value.is_zero()) {
          const crypto::U512 wide = U256::mul_wide(target, e->b->value);
          if (wide.high().is_zero()) invert(e->a, wide.low(), depth + 1);
        }
        return;
      }
      default:
        return;
    }
  }
};

struct SearchOutcome {
  bool found = false;
  Assignment model;
};

SearchOutcome model_search(const std::vector<Literal>& original,
                           const ExprPool& pool, const Assignment& seed) {
  SearchOutcome out;
  if (original.empty()) {
    out.found = true;
    return out;
  }

  // Collect the variable leaves (as nodes, for width info and inversion).
  std::vector<ExprRef> var_nodes;
  {
    std::unordered_set<std::uint32_t> ids;
    std::vector<ExprRef> stack;
    std::unordered_set<const Expr*> seen;
    for (const Literal& l : original) stack.push_back(l.expr);
    while (!stack.empty()) {
      ExprRef n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      if (n->is_var()) {
        if (ids.insert(n->var).second) var_nodes.push_back(n);
      } else if (n->a) {
        stack.push_back(n->a);
        if (n->b) stack.push_back(n->b);
      }
    }
  }

  Rng rng{kSearchSeed | 1};
  Assignment model = seed;
  std::size_t best = count_satisfied(original, model);
  const std::size_t want = original.size();

  for (std::uint32_t flip = 0; flip < kMaxFlips && best < want; ++flip) {
    // Pick an unsatisfied literal.
    BatchEval be(model);
    std::vector<const Literal*> unsat;
    for (const Literal& l : original)
      if (!be.satisfied(l)) unsat.push_back(&l);
    if (unsat.empty()) break;
    const Literal& lit = *unsat[rng.next() % unsat.size()];

    std::vector<Candidate> cands;
    Inverter inv{pool, be, cands};
    inv.invert(lit.expr, lit.truthy ? U256::one() : U256::zero(), 0);
    if (lit.truthy && lit.expr->kind != ExprKind::kEq &&
        !lit.expr->is_boolean()) {
      // "!= 0" can be hit with any nonzero target; try a random one too.
      inv.invert(lit.expr, U256{rng.next() | 1}, 0);
    }
    // Random-walk fallback: a random value for a random var of the literal.
    if (!var_nodes.empty()) {
      std::unordered_set<std::uint32_t> fv;
      free_vars(lit.expr, fv);
      if (!fv.empty()) {
        auto it = fv.begin();
        std::advance(it, static_cast<long>(rng.next() % fv.size()));
        const VarInfo& info = pool.var_info(*it);
        U256 v;
        switch (rng.next() % 4) {
          case 0: v = U256::zero(); break;
          case 1: v = U256::one(); break;
          case 2: v = U256{rng.next()}; break;
          default: v = width_mask(info.width); break;
        }
        cands.push_back({*it, v & width_mask(info.width)});
      }
    }
    if (cands.empty()) continue;

    // Greedy: apply the candidate with the best resulting score; random walk
    // when nothing improves.
    std::size_t best_cand = 0;
    std::size_t best_score = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      Assignment trial = model;
      trial.values[cands[i].var] = cands[i].value;
      const std::size_t s = count_satisfied(original, trial);
      if (s > best_score) {
        best_score = s;
        best_cand = i;
      }
      if (s == want) break;
    }
    if (best_score > best || (rng.next() & 1)) {
      const Candidate& c =
          best_score > best ? cands[best_cand]
                            : cands[rng.next() % cands.size()];
      model.values[c.var] = c.value;
      best = count_satisfied(original, model);
    }
  }

  if (best == want) {
    out.found = true;
    out.model = std::move(model);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cheap-layer driver shared by check() and quick_check().

struct CheapOutcome {
  SolveStatus status = SolveStatus::kUnknown;
  const char* method = "";
  Assignment pinned;                  ///< Variables pinned by equalities.
};

CheapOutcome run_cheap(const std::vector<Literal>& constraints,
                       ExprPool& pool) {
  CheapOutcome out;
  bool contradiction = false;
  const std::vector<Literal> norm = normalize(constraints, contradiction);
  if (contradiction) {
    out.status = SolveStatus::kUnsat;
    out.method = "fold";
    return out;
  }

  // Two rounds of equality + constant substitution, run on a SCRATCH copy.
  // Substitution replaces a pinned term with its constant everywhere — which
  // turns the very literal that created the pin into a tautology (a truthy
  // Lt(x,5) merges with 1 and folds away; Eq(And(x,3),1) pins And(x,3) and
  // collapses to Eq(1,1)). Handing that weakened set to the interval layer
  // silently drops constraints, so the scratch copy is used only to surface
  // contradictions and harvest pinned variables, while `norm` keeps the full
  // pre-substitution set for the interval layer.
  std::vector<Literal> scratch = norm;
  for (int round = 0; round < 2; ++round) {
    EqualityResult eq = equality_layer(scratch, pool);
    if (eq.contradiction) {
      out.status = SolveStatus::kUnsat;
      out.method = "equality";
      return out;
    }
    std::unordered_map<ExprRef, ExprRef> memo;
    std::vector<Literal> next;
    bool changed = false;
    for (const Literal& lit : scratch) {
      ExprRef sub = substitute(lit.expr, eq.uf, pool, memo);
      if (sub != lit.expr) changed = true;
      next.push_back({sub, lit.truthy});
    }
    // Harvest pinned vars: any var node whose class representative is const.
    {
      std::vector<ExprRef> stack;
      std::unordered_set<const Expr*> seen;
      for (const Literal& l : scratch) stack.push_back(l.expr);
      while (!stack.empty()) {
        ExprRef n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second) continue;
        if (n->is_var()) {
          ExprRef rep = eq.uf.find(n);
          if (rep->is_const()) out.pinned.values[n->var] = rep->value;
        } else if (n->a) {
          stack.push_back(n->a);
          if (n->b) stack.push_back(n->b);
        }
      }
    }
    bool contra2 = false;
    scratch = normalize(next, contra2);
    if (contra2) {
      out.status = SolveStatus::kUnsat;
      out.method = "equality";
      return out;
    }
    if (!changed) break;
  }

  if (interval_layer(norm, pool) == SolveStatus::kUnsat) {
    out.status = SolveStatus::kUnsat;
    out.method = "interval";
  }
  return out;
}

/// Layers 1-4 in order; the first that decides names itself in `method`.
SolveResult decide(const std::vector<Literal>& constraints, ExprPool& pool) {
  SolveResult result;
  CheapOutcome cheap = run_cheap(constraints, pool);
  if (cheap.status == SolveStatus::kUnsat) {
    result.status = SolveStatus::kUnsat;
    result.method = cheap.method;
    return result;
  }

  // Maybe the pinned assignment alone already satisfies everything.
  if (count_satisfied(constraints, cheap.pinned) == constraints.size()) {
    result.status = SolveStatus::kSat;
    result.model = std::move(cheap.pinned);
    result.method = "equality";
    return result;
  }

  SearchOutcome search = model_search(constraints, pool, cheap.pinned);
  if (search.found) {
    result.status = SolveStatus::kSat;
    result.model = std::move(search.model);
    result.method = "search";
    return result;
  }

  result.status = SolveStatus::kUnknown;
  result.method = "budget";
  return result;
}

}  // namespace

SolveResult Solver::check(const std::vector<Literal>& constraints) {
  ++stats_.queries;
  SolveResult result = decide(constraints, pool_);
  ++stats_.decisions[result.method];
  return result;
}

SolveStatus Solver::quick_check(const std::vector<Literal>& constraints) {
  ++stats_.quick_queries;
  CheapOutcome cheap = run_cheap(constraints, pool_);
  if (cheap.status == SolveStatus::kUnsat) {
    ++stats_.quick_decisions[cheap.method];
    return SolveStatus::kUnsat;
  }
  if (count_satisfied(constraints, cheap.pinned) == constraints.size()) {
    ++stats_.quick_decisions["equality"];
    return SolveStatus::kSat;
  }
  return SolveStatus::kUnknown;
}

}  // namespace sc::symex
