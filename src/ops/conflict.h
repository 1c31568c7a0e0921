#ifndef AXMLX_OPS_CONFLICT_H_
#define AXMLX_OPS_CONFLICT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ops/executor.h"
#include "xml/document.h"

namespace axmlx::ops {

/// One detected write-write conflict: `node` was written by `other_writer`
/// at document version `version`, and that write is invisible to (or
/// concurrent with) the requesting transaction's snapshot.
struct Conflict {
  xml::NodeId node = xml::kNullNode;
  uint64_t other_writer = 0;
  uint64_t version = 0;
};

/// Tracks which writers (transactions) are active against one document and
/// decides write-write conflicts at node granularity from the document's
/// MVCC version chains (DESIGN.md §10).
///
/// The rule is first-writer-wins without blocking: a write by transaction T
/// over node n conflicts iff n carries a version record by another writer
/// that either (a) postdates T's snapshot — the classic snapshot-isolation
/// first-committer check, evaluated eagerly at write time — or (b) belongs
/// to a writer that is still active, which forbids dirty writes: if T
/// overwrote an uncommitted write and that writer later compensated, the
/// compensation would clobber T's update.
///
/// An aborted writer whose first write postdates T's snapshot is the
/// exception. Its rollback and compensation restore every node it wrote to
/// that node's pre-write state (deletes are undone with the original ids),
/// and T's snapshot saw none of it, so T's snapshot of those nodes is
/// still their live state and the records cannot conflict. Without that
/// exception a conflict loser's own undo records would make the winner
/// lose too, and two transactions writing the same two nodes in opposite
/// orders would abort each other forever. A snapshot that did see the
/// aborted writer's effects still conflicts on its undo records.
class ConflictTable {
 public:
  /// Registers `writer` as active with its begin snapshot version.
  void BeginWriter(uint64_t writer, uint64_t snapshot);

  /// Unregisters a committed `writer`.
  void EndWriter(uint64_t writer);

  /// Unregisters `writer` once its effects are rolled back and compensated.
  /// `first_version` is the version of its first record (0: it wrote
  /// nothing).
  void AbortWriter(uint64_t writer, uint64_t first_version);

  /// Forgets aborted writers whose first record is at or below `version`,
  /// the oldest snapshot still in use: every snapshot saw their writes, so
  /// their records conflict like anyone's.
  void ForgetAbortedThrough(uint64_t version);

  [[nodiscard]] bool IsActive(uint64_t writer) const;

  /// Oldest snapshot any active writer still reads through, or `fallback`
  /// when no writer is active. Version records at or below this are
  /// unreachable and safe to prune.
  [[nodiscard]] uint64_t OldestSnapshot(uint64_t fallback) const;

  /// Checks the write footprint of `effect` (applied to `doc` by `writer`,
  /// whose snapshot is `snapshot`) against all other writers' version
  /// records. Returns the first conflict found, or nullopt. The check runs
  /// *after* the effect applied, so the caller must roll the effect back on
  /// conflict; the effect's own version records are skipped via `writer`.
  [[nodiscard]] std::optional<Conflict> CheckEffect(const xml::Document& doc,
                                                    const OpEffect& effect,
                                                    uint64_t writer,
                                                    uint64_t snapshot) const;

  /// The node-granularity write footprint of an effect: for inserts the
  /// parent and inserted root, for removals the parent plus every removed
  /// node, for text edits the text node. Deduplicated, order unspecified.
  static void FootprintOf(const OpEffect& effect,
                          std::vector<xml::NodeId>* out);

 private:
  std::map<uint64_t, uint64_t> active_;  ///< writer -> snapshot version.
  std::map<uint64_t, uint64_t> aborted_;  ///< writer -> first record.
};

}  // namespace axmlx::ops

#endif  // AXMLX_OPS_CONFLICT_H_
