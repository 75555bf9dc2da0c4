#ifndef DATALOG_EVAL_BYTECODE_BYTECODE_H_
#define DATALOG_EVAL_BYTECODE_BYTECODE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "eval/rule_matcher.h"

namespace datalog {

class CompiledRule;

namespace bytecode {

/// The register-based instruction set compiled join plans lower to (see
/// docs/bytecode_vm.md). Operands address flat u32 frame slots holding
/// dictionary ids, so a run never touches a Value. A left-deep program
/// bumps MatchStats exactly as CompiledRule::Execute does on the same
/// schedule.
///
/// Generic opcodes pair an *open* (resolve the depth's candidate set,
/// bump index_lookups) with a *next* (advance one candidate row, bump
/// tuples_scanned); FILTER/LOAD ops act on the current row. The fused
/// `...EmitAll` superinstructions run the innermost loop -- candidate
/// iteration, filters, slot writes, negation and head emission -- without
/// per-row dispatch.
enum class Op : std::uint8_t {
  kHalt = 0,
  // LOAD_KEY: keys[a][b] = slots[c]. Patches a bound-variable position
  // of step a's probe key before the depth's open op runs.
  kLoadKey,
  // SCAN open: dead -> jump t; ++index_lookups; rewind step a's row
  // cursor. LOOP in the ISA doc.
  kLoop,
  // SCAN next (END_LOOP edge): cursor exhausted -> jump t; else advance,
  // ++tuples_scanned.
  kLoopNext,
  // INDEX_PROBE open: dead or no prepared view -> jump t;
  // ++index_lookups; position on the posting list for keys[a].
  kProbe,
  // INDEX_PROBE next: list exhausted -> jump t; else advance,
  // ++tuples_scanned. The list holds only the postings inside step a's
  // row range (old prefix, delta range, or the whole relation).
  kProbeNext,
  // FILTER_CONST: column b of step a's current row != dictionary id c ->
  // jump t (continue the enclosing loop).
  kFilterConst,
  // FILTER_KEY: column b of step a's current row != keys[a][c] -> jump t.
  kFilterKey,
  // FILTER_EQ (repeated variable): columns b and c of step a's current
  // row differ -> jump t.
  kFilterEq,
  // LOAD_COL: slots[c] = column b of step a's current row.
  kLoad,
  // Fully-bound membership: dead -> jump t; ++index_lookups;
  // ++tuples_scanned; the row holding keys[a] (found through the dedup
  // table) absent or outside step a's row range -> jump t.
  kMember,
  // EMIT: ++substitutions; negated literals absent -> buffer the head
  // row ids; always jump t (the innermost loop's next op, or HALT).
  kEmit,
  kJump,  // unconditional jump to t
  // MULTIWAY_SEEK open: elect the smallest candidate list among mw step
  // a's probes (one index_lookups bump per probe), materialize only the
  // winner's projection, fill the union membership keys.
  kSeek,
  // MULTIWAY_SEEK next: exhausted -> jump t; per candidate id
  // ++tuples_scanned, membership-test the other probes (union-index
  // seeks bump index_lookups, sorted-root probes bump tuples_scanned),
  // bind survivors into the step's slot.
  kSeekNext,
  // Fused superinstructions: open + full candidate loop + emission for
  // the innermost depth, then fall through.
  kLoopEmitAll,   // innermost (filtered) scan
  kProbeEmitAll,  // innermost indexed probe
  kSeekEmitAll,   // innermost multiway intersection
  kNumOps,        // sentinel, not a real opcode
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kNumOps);

const char* OpName(Op op);

/// One instruction: opcode plus three small operands and a jump target
/// (absolute instruction index). Unused fields are zero.
struct Insn {
  Op op = Op::kHalt;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t t = 0;
};

/// One body atom of the lowered plan: the subset of CompiledAtomStep the
/// VM reads, with constants as dictionary ids.
struct StepDesc {
  std::uint32_t predicate = 0;
  std::uint32_t arity = 0;
  std::uint8_t source = 0;         // AtomSource
  std::vector<int> key_cols;       // strictly increasing bound columns
  // Constants interned; positions patched per probe by kLoadKey hold
  // ValueDictionary::kInvalidId.
  std::vector<std::uint32_t> key_template_ids;
  // Repeated-variable checks as row-local column pairs, and free-
  // variable writes as (column, slot) pairs -- same layout as
  // CompiledAtomStep::id_checks / writes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> id_checks;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
};

/// A head or negated-literal argument: a constant's dictionary id, or a
/// frame slot.
struct TermDesc {
  bool is_constant = false;
  std::uint32_t slot = 0;  // variables
  std::uint32_t id = 0;    // constants
};

struct NegDesc {
  std::uint32_t predicate = 0;
  std::vector<TermDesc> terms;
};

/// Mirror of MultiwayProbe (see eval/compiled_rule.h).
struct ProbeDesc {
  std::uint32_t atom = 0;  // index into Program::steps
  std::vector<int> var_cols;
  std::vector<int> bound_cols;  // strictly increasing
  std::vector<std::uint32_t> key_template_ids;  // kInvalidId holes
  std::vector<std::pair<std::uint32_t, std::uint32_t>> key_fill;
  bool unconditional = false;
  std::vector<int> union_cols;  // strictly increasing
  std::vector<std::uint32_t> union_template_ids;  // kInvalidId holes
  std::vector<std::pair<std::uint32_t, std::uint32_t>> union_key_fill;
  std::vector<std::uint32_t> union_var_positions;
};

struct MwStepDesc {
  std::uint32_t slot = 0;
  std::vector<ProbeDesc> probes;
};

/// A lowered join plan: step and probe descriptor tables plus code,
/// executable without the CompiledRule it came from. Constants are ids
/// of the process-wide ValueDictionary, interned by Lower.
struct Program {
  std::uint8_t shape = 0;  // 0 = left-deep, 1 = multiway
  bool use_index = true;   // knob snapshot at lowering time
  std::uint32_t num_slots = 0;
  std::vector<StepDesc> steps;
  std::uint32_t head_predicate = 0;
  std::vector<TermDesc> head;
  std::vector<NegDesc> negated;
  std::vector<MwStepDesc> mw_steps;
  std::vector<Insn> code;

  bool empty() const { return code.empty(); }
};

/// Lowers a compiled plan to bytecode. Returns an empty program when the
/// plan does not qualify for id-space execution (an unbound head or
/// negated variable, an empty body, or compiled without a rule head).
Program Lower(const CompiledRule& plan);

/// Per-opcode dispatch tallies for the obs layer (bytecode.dispatch).
using DispatchCounts = std::array<std::uint64_t, kNumOps>;

/// Executes a lowered program: enumerates body matches and appends the
/// instantiated head rows to `out`, duplicates included (EmitDerived
/// inserts them). Every run ends by executing the program's final
/// instruction, its one kHalt. When `dispatch` is non-null every executed
/// instruction is tallied per opcode.
void Run(const Program& program, const Database& full,
         const DeltaRanges* delta, const OldLimits* old_limits,
         DerivedRows* out, MatchStats* stats,
         DispatchCounts* dispatch = nullptr);

/// Publishes a run's dispatch tallies to the process MetricsRegistry as
/// `bytecode.dispatch{op=...}` counters. No-op when metrics are off.
void PublishDispatchCounts(const DispatchCounts& counts);

}  // namespace bytecode
}  // namespace datalog

#endif  // DATALOG_EVAL_BYTECODE_BYTECODE_H_
