#include "gates/fault_dictionary.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace cpsinw::gates {
namespace {

/// Every key of the table, in enumerate_transistor_faults order per cell.
std::vector<std::pair<CellKind, CellFault>> all_keys() {
  std::vector<std::pair<CellKind, CellFault>> keys;
  for (const CellKind kind : all_cell_kinds())
    for (const CellFault& f : enumerate_transistor_faults(kind))
      keys.emplace_back(kind, f);
  return keys;
}

// Defined first, so gtest runs it before any other lookup of this binary:
// the eight threads race to make the process's first lookups, one of them
// derives the table, and every thread must see the same entries.
TEST(DictionaryTable, ConcurrentFirstLookupsAgree) {
  constexpr int kThreads = 8;
  const auto keys = all_keys();
  std::vector<std::vector<const FaultAnalysis*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&keys, &seen, t] {
      // Each thread starts at its own key, so the first lookups differ.
      std::vector<const FaultAnalysis*>& mine =
          seen[static_cast<std::size_t>(t)];
      mine.resize(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t k = (i + static_cast<std::size_t>(t) * 13) %
                              keys.size();
        mine[k] = &dictionary(keys[k].first, keys[k].second);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(t)]) << "thread " << t;
}

TEST(DictionaryTable, EveryEntryMatchesAnalyzeFault) {
  const auto keys = all_keys();
  ASSERT_EQ(keys.size(), 104u);  // 7 cells, 26 transistors, 4 kinds each
  for (const auto& [kind, cf] : keys) {
    SCOPED_TRACE(testing::Message() << to_string(kind) << " t"
                                    << cf.transistor << " "
                                    << to_string(cf.kind));
    const FaultAnalysis& got = dictionary(kind, cf);
    const FaultAnalysis want = analyze_fault(kind, cf);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.fault, want.fault);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
      const FaultRow& g = got.rows[r];
      const FaultRow& w = want.rows[r];
      EXPECT_EQ(g.input, w.input);
      EXPECT_EQ(g.good, w.good);
      EXPECT_EQ(g.faulty.out, w.faulty.out);
      EXPECT_EQ(g.faulty.contention, w.faulty.contention);
      EXPECT_EQ(g.faulty.floating, w.faulty.floating);
      EXPECT_EQ(g.faulty.drive0, w.faulty.drive0);
      EXPECT_EQ(g.faulty.drive1, w.faulty.drive1);
    }
    EXPECT_EQ(got.output_detectable, want.output_detectable);
    EXPECT_EQ(got.marginal_detectable, want.marginal_detectable);
    EXPECT_EQ(got.iddq_detectable, want.iddq_detectable);
    EXPECT_EQ(got.needs_sequence, want.needs_sequence);
    EXPECT_EQ(got.first_output_vector, want.first_output_vector);
    EXPECT_EQ(got.first_iddq_vector, want.first_iddq_vector);
    EXPECT_EQ(got.compiled_logic, want.compiled_logic);
    EXPECT_EQ(got.compiled_truth, want.compiled_truth);
    EXPECT_EQ(got.compiled_contention, want.compiled_contention);
    EXPECT_EQ(got.compiled_binary, want.compiled_binary);
  }
}

TEST(DictionaryTable, OneKeyHasOneAddress) {
  const auto keys = all_keys();
  std::vector<const FaultAnalysis*> first;
  for (const auto& [kind, cf] : keys) first.push_back(&dictionary(kind, cf));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(&dictionary(keys[i].first, keys[i].second), first[i]);
  // Distinct keys, distinct entries.
  for (std::size_t i = 1; i < first.size(); ++i)
    EXPECT_NE(first[i - 1], first[i]);
}

TEST(DictionaryTable, KeysOutsideTheTableThrow) {
  const TransistorFault kinds[] = {
      TransistorFault::kStuckOpen, TransistorFault::kStuckOn,
      TransistorFault::kStuckAtNType, TransistorFault::kStuckAtPType};
  for (const CellKind kind : all_cell_kinds()) {
    const int count = static_cast<int>(cell(kind).transistors.size());
    for (const TransistorFault k : kinds)
      for (const int t : {-1, count, 99})
        EXPECT_THROW((void)dictionary(kind, {t, k}), std::invalid_argument)
            << to_string(kind) << " t" << t << " " << to_string(k);
    for (int t = 0; t < count; ++t)
      EXPECT_THROW((void)dictionary(kind, {t, TransistorFault::kNone}),
                   std::invalid_argument)
          << to_string(kind) << " t" << t;
  }
  // A cell kind past the library's.
  EXPECT_THROW(
      (void)dictionary(static_cast<CellKind>(all_cell_kinds().size()),
                       {0, TransistorFault::kStuckOpen}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::gates
