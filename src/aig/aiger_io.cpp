#include "aig/aiger_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace javer::aig {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("aiger: " + msg);
}

struct Header {
  bool binary = false;
  std::uint64_t m = 0, i = 0, l = 0, o = 0, a = 0, b = 0, c = 0;
};

Header read_header(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty file");
  std::istringstream ss(line);
  std::string magic;
  ss >> magic;
  Header h;
  if (magic == "aag") {
    h.binary = false;
  } else if (magic == "aig") {
    h.binary = true;
  } else {
    fail("bad magic '" + magic + "'");
  }
  if (!(ss >> h.m >> h.i >> h.l >> h.o >> h.a)) fail("truncated header");
  // Check the counts before anything is sized by them: M fits Lit's
  // 31-bit variables, and I + L + A fits in M (equals it, in binary).
  if (h.m > (std::uint64_t{1} << 31) - 1) fail("M out of range");
  if (h.i > h.m || h.l > h.m - h.i || h.a > h.m - h.i - h.l ||
      (h.binary && h.i + h.l + h.a != h.m)) {
    fail("header counts do not match M");
  }
  // Optional B C (J F unsupported).
  if (ss >> h.b) {
    if (ss >> h.c) {
      std::uint64_t j = 0;
      if (ss >> j && j != 0) fail("justice/fairness sections not supported");
    }
  }
  return h;
}

std::uint64_t read_uint_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) fail(std::string("truncated ") + what);
  std::istringstream ss(line);
  std::uint64_t v = 0;
  if (!(ss >> v)) fail(std::string("bad ") + what + ": " + line);
  return v;
}

std::uint64_t decode_binary_uint(std::istream& in) {
  std::uint64_t x = 0;
  int shift = 0;
  while (true) {
    int ch = in.get();
    if (ch == EOF) fail("truncated binary and section");
    x |= static_cast<std::uint64_t>(ch & 0x7f) << shift;
    if ((ch & 0x80) == 0) break;
    shift += 7;
  }
  return x;
}

void encode_binary_uint(std::ostream& out, std::uint64_t x) {
  while (x & ~0x7fULL) {
    out.put(static_cast<char>((x & 0x7f) | 0x80));
    x >>= 7;
  }
  out.put(static_cast<char>(x));
}

}  // namespace

Aig read_aiger(std::istream& in, const AigerReadOptions& opts) {
  Header h = read_header(in);
  Aig aig;

  struct PendingLatch {
    std::uint64_t lit;
    std::uint64_t next;
    std::uint64_t reset;
  };
  struct PendingAnd {
    std::uint64_t lhs, rhs0, rhs1;
  };
  std::vector<std::uint64_t> input_lits;
  std::vector<PendingLatch> latch_lines;
  std::vector<std::uint64_t> output_lits, bad_lits, constraint_lits;
  std::vector<PendingAnd> and_lines;

  // --- read the structural sections ---
  if (!h.binary) {
    for (std::uint64_t k = 0; k < h.i; ++k) {
      std::uint64_t lit = read_uint_line(in, "input");
      if (lit < 2 || (lit & 1)) fail("bad input literal");
      input_lits.push_back(lit);
    }
  } else {
    for (std::uint64_t k = 0; k < h.i; ++k) input_lits.push_back(2 * (k + 1));
  }
  for (std::uint64_t k = 0; k < h.l; ++k) {
    std::string line;
    if (!std::getline(in, line)) fail("truncated latch section");
    std::istringstream ss(line);
    PendingLatch pl{0, 0, 0};
    if (h.binary) {
      pl.lit = 2 * (h.i + k + 1);
      if (!(ss >> pl.next)) fail("bad latch line: " + line);
    } else {
      if (!(ss >> pl.lit >> pl.next)) fail("bad latch line: " + line);
      if (pl.lit < 2 || (pl.lit & 1)) fail("bad latch literal");
    }
    if (!(ss >> pl.reset)) pl.reset = 0;  // default reset is 0
    latch_lines.push_back(pl);
  }
  for (std::uint64_t k = 0; k < h.o; ++k) {
    output_lits.push_back(read_uint_line(in, "output"));
  }
  for (std::uint64_t k = 0; k < h.b; ++k) {
    bad_lits.push_back(read_uint_line(in, "bad"));
  }
  for (std::uint64_t k = 0; k < h.c; ++k) {
    constraint_lits.push_back(read_uint_line(in, "constraint"));
  }
  if (!h.binary) {
    for (std::uint64_t k = 0; k < h.a; ++k) {
      std::string line;
      if (!std::getline(in, line)) fail("truncated and section");
      std::istringstream ss(line);
      PendingAnd pa{0, 0, 0};
      if (!(ss >> pa.lhs >> pa.rhs0 >> pa.rhs1)) fail("bad and line: " + line);
      if (pa.lhs < 2 || (pa.lhs & 1)) fail("bad and lhs");
      and_lines.push_back(pa);
    }
  } else {
    for (std::uint64_t k = 0; k < h.a; ++k) {
      std::uint64_t lhs = 2 * (h.i + h.l + k + 1);
      std::uint64_t delta0 = decode_binary_uint(in);
      std::uint64_t delta1 = decode_binary_uint(in);
      if (delta0 > lhs) fail("binary and delta out of range");
      std::uint64_t rhs0 = lhs - delta0;
      if (delta1 > rhs0) fail("binary and delta out of range");
      std::uint64_t rhs1 = rhs0 - delta1;
      and_lines.push_back({lhs, rhs0, rhs1});
    }
  }

  // aiger var -> resolved literal in our graph, sized by the largest
  // variable the file defines: ASCII lets the header's M exceed it by
  // any amount (in binary M is exactly I + L + A, so there the maps span
  // M). A variable past them is undefined, like one below that no line
  // defines; its value is constant false.
  std::uint64_t max_var = 0;
  for (std::uint64_t lit : input_lits) max_var = std::max(max_var, lit >> 1);
  for (const PendingLatch& pl : latch_lines) {
    max_var = std::max(max_var, pl.lit >> 1);
  }
  for (const PendingAnd& pa : and_lines) {
    max_var = std::max(max_var, pa.lhs >> 1);
  }
  max_var = std::min(max_var, h.m);  // larger ones fail below
  std::vector<Lit> var_map(max_var + 1, Lit::false_lit());
  std::vector<bool> resolved(max_var + 1, false);
  resolved[0] = true;
  auto is_resolved = [&](std::uint64_t v) {
    return v <= max_var && resolved[v];
  };

  // --- create inputs and latches ---
  for (std::uint64_t lit : input_lits) {
    std::uint64_t v = lit >> 1;
    if (v > h.m || is_resolved(v)) fail("duplicate/out-of-range input var");
    var_map[v] = aig.add_input();
    resolved[v] = true;
  }
  for (const PendingLatch& pl : latch_lines) {
    std::uint64_t v = pl.lit >> 1;
    if (v > h.m || is_resolved(v)) fail("duplicate/out-of-range latch var");
    Ternary reset = Ternary::False;
    if (pl.reset == 1) {
      reset = Ternary::True;
    } else if (pl.reset == pl.lit) {
      reset = Ternary::X;  // uninitialized latch
    } else if (pl.reset != 0) {
      fail("unsupported latch reset literal");
    }
    var_map[v] = aig.add_latch(reset);
    resolved[v] = true;
  }

  // --- resolve and-gates (ASCII permits arbitrary definition order) ---
  std::unordered_map<std::uint64_t, std::size_t> def_of;  // var -> and index
  for (std::size_t idx = 0; idx < and_lines.size(); ++idx) {
    std::uint64_t v = and_lines[idx].lhs >> 1;
    if (v > h.m || is_resolved(v) || def_of.count(v)) {
      fail("duplicate/out-of-range and var");
    }
    def_of[v] = idx;
  }
  auto lookup = [&](std::uint64_t lit) -> Lit {
    std::uint64_t v = lit >> 1;
    if (v > h.m) fail("literal out of range");
    return (v <= max_var ? var_map[v] : Lit::false_lit()) ^ ((lit & 1) != 0);
  };
  // Iterative DFS so deep chains do not overflow the stack. Roots are
  // visited in file order (not def_of iteration order): node creation
  // happens inside this loop, so walking the unordered_map here would
  // make AIG variable numbering depend on hash iteration order. A gate is
  // `expanded` once it has pushed its unresolved fanins; every stack entry
  // above it is then in its fanin cone, so meeting it again, unresolved,
  // as a fanin closes a cycle.
  std::vector<std::uint64_t> stack;
  std::vector<bool> expanded(max_var + 1, false);
  for (const PendingAnd& root_line : and_lines) {
    std::uint64_t root = root_line.lhs >> 1;
    if (is_resolved(root)) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      std::uint64_t v = stack.back();
      if (is_resolved(v)) {
        stack.pop_back();
        continue;
      }
      auto it = def_of.find(v);
      if (it == def_of.end()) fail("undefined variable " + std::to_string(v));
      const PendingAnd& pa = and_lines[it->second];
      std::uint64_t v0 = pa.rhs0 >> 1;
      std::uint64_t v1 = pa.rhs1 >> 1;
      if (v0 > h.m || v1 > h.m) fail("and fanin out of range");
      bool ready = true;
      for (std::uint64_t fanin : {v0, v1}) {
        if (is_resolved(fanin)) continue;
        if (fanin <= max_var && expanded[fanin]) fail("cyclic and chain");
        stack.push_back(fanin);
        ready = false;
      }
      if (!ready) {
        expanded[v] = true;
        continue;
      }
      var_map[v] = aig.add_and(lookup(pa.rhs0), lookup(pa.rhs1));
      resolved[v] = true;
      stack.pop_back();
    }
  }

  // --- latch next functions, outputs, properties, constraints ---
  for (std::size_t k = 0; k < latch_lines.size(); ++k) {
    aig.set_latch_next(var_map[latch_lines[k].lit >> 1],
                       lookup(latch_lines[k].next));
  }
  bool outputs_as_bad = (h.b == 0 && h.o > 0 && opts.outputs_as_bad_fallback);
  for (std::size_t k = 0; k < output_lits.size(); ++k) {
    if (outputs_as_bad) {
      aig.add_property(~lookup(output_lits[k]),
                       "o" + std::to_string(k));
    } else {
      aig.add_output(lookup(output_lits[k]));
    }
  }
  for (std::size_t k = 0; k < bad_lits.size(); ++k) {
    aig.add_property(~lookup(bad_lits[k]), "b" + std::to_string(k));
  }
  for (std::uint64_t lit : constraint_lits) aig.add_constraint(lookup(lit));

  // --- symbol table (optional) ---
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == 'c') break;  // comment section
    char kind = line[0];
    std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    if (kind == 'b' || kind == 'o') {
      std::size_t idx = std::stoul(line.substr(1, space - 1));
      std::string name = line.substr(space + 1);
      if (kind == 'b' && idx < aig.properties().size()) {
        aig.properties()[idx].name = name;
      } else if (kind == 'o' && outputs_as_bad &&
                 idx < aig.properties().size()) {
        aig.properties()[idx].name = name;
      }
    }
  }

  aig.check_well_formed();
  return aig;
}

Aig read_aiger_file(const std::string& path, const AigerReadOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  return read_aiger(in, opts);
}

void write_aiger(std::ostream& out, const Aig& aig, bool binary) {
  // Renumber into canonical AIGER order: inputs, latches, ands.
  std::vector<std::uint64_t> var_to_aiger(aig.num_nodes(), 0);
  std::uint64_t next_var = 1;
  for (Var v : aig.inputs()) var_to_aiger[v] = next_var++;
  for (const Latch& l : aig.latches()) var_to_aiger[l.var] = next_var++;
  std::vector<Var> and_vars;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) {
      var_to_aiger[v] = next_var++;
      and_vars.push_back(v);
    }
  }
  auto map_lit = [&](Lit l) -> std::uint64_t {
    return 2 * var_to_aiger[l.var()] + (l.complemented() ? 1 : 0);
  };

  std::uint64_t m = next_var - 1;
  out << (binary ? "aig " : "aag ") << m << ' ' << aig.num_inputs() << ' '
      << aig.num_latches() << ' ' << aig.outputs().size() << ' '
      << aig.num_ands();
  if (!aig.properties().empty() || !aig.constraints().empty()) {
    out << ' ' << aig.properties().size() << ' ' << aig.constraints().size();
  }
  out << '\n';

  if (!binary) {
    for (Var v : aig.inputs()) out << 2 * var_to_aiger[v] << '\n';
  }
  for (const Latch& l : aig.latches()) {
    std::uint64_t self = 2 * var_to_aiger[l.var];
    if (!binary) out << self << ' ';
    out << map_lit(l.next);
    if (l.reset == Ternary::True) {
      out << " 1";
    } else if (l.reset == Ternary::X) {
      out << ' ' << self;
    }
    out << '\n';
  }
  for (Lit o : aig.outputs()) out << map_lit(o) << '\n';
  for (const Property& p : aig.properties()) out << map_lit(~p.lit) << '\n';
  for (Lit c : aig.constraints()) out << map_lit(c) << '\n';

  if (!binary) {
    for (Var v : and_vars) {
      const Node& n = aig.node(v);
      out << 2 * var_to_aiger[v] << ' ' << map_lit(n.fanin0) << ' '
          << map_lit(n.fanin1) << '\n';
    }
  } else {
    for (Var v : and_vars) {
      const Node& n = aig.node(v);
      std::uint64_t lhs = 2 * var_to_aiger[v];
      std::uint64_t rhs0 = map_lit(n.fanin0);
      std::uint64_t rhs1 = map_lit(n.fanin1);
      if (rhs0 < rhs1) std::swap(rhs0, rhs1);
      encode_binary_uint(out, lhs - rhs0);
      encode_binary_uint(out, rhs0 - rhs1);
    }
  }

  // Symbol table: property names only (the ones we track).
  for (std::size_t k = 0; k < aig.properties().size(); ++k) {
    const std::string& name = aig.properties()[k].name;
    if (!name.empty()) out << 'b' << k << ' ' << name << '\n';
  }
}

void write_aiger_file(const std::string& path, const Aig& aig, bool binary) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open " + path);
  write_aiger(out, aig, binary);
}

}  // namespace javer::aig
