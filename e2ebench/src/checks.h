// Output checks of the end-to-end benchmark. Each check compares what the
// program produced against a value the benchmark computed on its own (the
// committed-transaction list, the fault schedule, its document model) and
// returns an empty string when the output is right, or what is wrong. They
// are pure functions so the self-test can feed them wrong outputs.
#ifndef AXMLX_E2EBENCH_CHECKS_H_
#define AXMLX_E2EBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "xml/document.h"

namespace e2e {

// --- Tree workloads --------------------------------------------------------

/// The `txn` attribute of every <entry> element of `doc`, in document order.
std::vector<std::string> EntryTxns(const axmlx::xml::Document& doc);

/// A worker log must hold exactly `ops_per_service` entries of every
/// committed transaction, in commit order, and nothing else.
std::string CheckCommittedEntries(const std::vector<std::string>& entries,
                                  const std::vector<std::string>& committed,
                                  int ops_per_service);

/// The decision the benchmark's own schedule requires of a transaction.
enum class Expected {
  kCommit,  ///< Nothing was scheduled to stop it.
  kAbort,   ///< A service fault was scheduled in it.
  kEither,  ///< A message fault hit it; a timeout may abort it.
};

/// Every transaction is decided, and decided as `expected` says.
std::string CheckDecision(Expected expected, bool decided, bool committed);

/// A store reopened from its WAL alone serializes like the live document.
std::string CheckReplay(const std::string& live, const std::string& replayed);

// --- doc_mvcc --------------------------------------------------------------

struct Record {
  std::string key;
  std::string price;
  bool operator==(const Record&) const = default;
};
struct Section {
  std::string id;
  std::vector<Record> items;
  bool operator==(const Section&) const = default;
};
using Inventory = std::vector<Section>;

/// Reads the keyed document (<Inv><section id><item id><name/><price/>...).
Inventory ReadInventory(const axmlx::xml::Document& doc);

/// The final document equals the model with the committed transactions
/// applied in commit order.
std::string CheckInventory(const Inventory& doc, const Inventory& model);

/// A keyed read of a record no concurrent transaction wrote returns the
/// model's value.
std::string CheckKeyedRead(const std::string& key, const std::string& got,
                           const std::string& expected);

/// After an abort, a value the aborted transaction materialized is back to
/// the value it had before.
std::string CheckRestored(const std::string& what, const std::string& now,
                          const std::string& before);

}  // namespace e2e

#endif  // AXMLX_E2EBENCH_CHECKS_H_
