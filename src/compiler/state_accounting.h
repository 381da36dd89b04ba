// Switch-state accounting for the generated programs (reproduces the
// quantity plotted in Fig. 10).
//
// Sizing model (bytes), mirroring the P4 register/table layouts:
//   FwdT entry:  key (dst 16b + tag + pid 8b) + mv (4B per attribute) +
//                ntag + nhop 9b + version 16b
//   BestT entry: one key-sized pointer per destination
//   flowlet:     per slot: tag + pid 8b + fid 32b + nhop 9b + ntag +
//                timestamp 32b (policy-aware layout, §5.3)
//   loop table:  per slot: hash 32b + maxttl 8b + minttl 8b (§5.5)
//   multicast:   per entry: tag + port 9b + ntag
// Tag fields use the compiler-minimized tag width rounded up to bytes.
#pragma once

#include "compiler/compiler.h"

namespace contra::compiler {

struct CompileResult;

/// Fills footprint for every switch in the result (table sizes from
/// kFlowletSlots and kLoopTableSlots).
void account_state(CompileResult& result);

}  // namespace contra::compiler
