// Differential tests of the segment kernel (core/segment.h) that both
// in-memory engines are built from: the page+buffer merge and range
// emitter against a std::map model of "buffer shadows page", and the
// error-bounded Find against std::lower_bound on pages cut from
// shrinking-cone output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/search_policy.h"
#include "core/segment.h"
#include "core/shrinking_cone.h"
#include "datasets/datasets.h"

namespace {

using fitree::Feasibility;
using fitree::SearchPolicy;
using Page = fitree::SegmentPage<int64_t, uint64_t>;
using Entry = Page::Entry;
using Map = std::map<int64_t, uint64_t>;

// A random page (even keys) and a sorted, one-entry-per-key buffer mixing
// tombstones and payload overrides of paged keys with pending inserts of
// unpaged (odd) keys — the union of both engines' buffer shapes. `model`
// receives the page's contents with the buffer applied, and the return
// value is the number of paged keys the tombstones delete.
size_t MakeCase(std::mt19937_64& rng, Page* page, std::vector<Entry>* buffer,
                Map* model) {
  page->keys.clear();
  page->values.clear();
  buffer->clear();
  model->clear();
  const int64_t universe = 1 + static_cast<int64_t>(rng() % 400);
  const uint64_t page_pct = rng() % 101;
  const uint64_t buffer_pct = rng() % 101;
  size_t tombstones = 0;
  for (int64_t key = 0; key < universe; ++key) {
    const bool even = key % 2 == 0;
    if (even && rng() % 100 < page_pct) {
      page->keys.push_back(key);
      page->values.push_back(rng());
      (*model)[key] = page->values.back();
    } else if (even) {
      continue;  // an absent key: neither paged nor buffered
    }
    if (rng() % 100 >= buffer_pct) continue;
    if (!even) {
      buffer->push_back({key, rng(), false});  // pending insert
      (*model)[key] = buffer->back().value;
    } else if (rng() % 2 == 0) {
      buffer->push_back({key, 0, true});  // pending delete
      model->erase(key);
      ++tombstones;
    } else {
      buffer->push_back({key, rng(), false});  // payload override
      (*model)[key] = buffer->back().value;
    }
  }
  return tombstones;
}

TEST(SegmentKernel, MergeBufferMatchesMapModel) {
  std::mt19937_64 rng(0x5E6);
  Page page;
  std::vector<Entry> buffer;
  Map model;
  for (int round = 0; round < 2000; ++round) {
    const size_t tombstones = MakeCase(rng, &page, &buffer, &model);
    ASSERT_TRUE((fitree::BufferSortedUnique<int64_t, uint64_t>(buffer)));
    std::vector<int64_t> keys;
    std::vector<uint64_t> values;
    ASSERT_EQ(page.MergeBuffer(buffer, &keys, &values), tombstones)
        << "round " << round;
    ASSERT_EQ(keys.size(), values.size());
    std::vector<std::pair<int64_t, uint64_t>> got;
    for (size_t i = 0; i < keys.size(); ++i) {
      got.emplace_back(keys[i], values[i]);
    }
    const std::vector<std::pair<int64_t, uint64_t>> want(model.begin(),
                                                         model.end());
    ASSERT_EQ(got, want) << "round " << round;
  }
}

TEST(SegmentKernel, EmitRangeMatchesMapModel) {
  std::mt19937_64 rng(0xE317);
  Page page;
  std::vector<Entry> buffer;
  Map model;
  std::vector<std::pair<int64_t, uint64_t>> got;
  std::vector<int64_t> got_keys;
  for (int round = 0; round < 2000; ++round) {
    MakeCase(rng, &page, &buffer, &model);
    for (int q = 0; q < 8; ++q) {
      const int64_t lo = static_cast<int64_t>(rng() % 420) - 10;
      const int64_t hi = lo + static_cast<int64_t>(rng() % 120) - 10;
      got.clear();
      auto with_value = [&](int64_t k, uint64_t v) { got.emplace_back(k, v); };
      const size_t emitted = page.EmitRange(buffer, lo, hi, with_value);
      std::vector<std::pair<int64_t, uint64_t>> want;
      if (lo <= hi) want.assign(model.lower_bound(lo), model.upper_bound(hi));
      ASSERT_EQ(got, want) << "round " << round << " [" << lo << ", " << hi
                           << "]";
      ASSERT_EQ(emitted, want.size());
      // Key-only callbacks see the same keys.
      got_keys.clear();
      auto key_only = [&](int64_t k) { got_keys.push_back(k); };
      ASSERT_EQ(page.EmitRange(buffer, lo, hi, key_only), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got_keys[i], want[i].first);
      }
    }
  }
}

// Cuts `keys` into pages with the shrinking cone and checks, on every page,
// the error bound and Find for every key and key+-1 under every policy.
void CheckFindOnCutPages(const std::vector<int64_t>& keys, double error,
                         Feasibility feasibility) {
  const auto models = fitree::SegmentShrinkingCone<int64_t>(keys, error,
                                                            feasibility);
  ASSERT_FALSE(models.empty());
  Page page;
  for (const auto& m : models) {
    page.Assign(m, keys, {});
    ASSERT_EQ(page.keys.size(), m.length);
    ASSERT_EQ(page.keys.front(), m.first_key);
    ASSERT_TRUE(page.CheckErrorBound(error))
        << "segment at " << m.first_key << " error " << error;
    for (const int64_t key : page.keys) {
      for (const int64_t probe : {key - 1, key, key + 1}) {
        const auto it =
            std::lower_bound(page.keys.begin(), page.keys.end(), probe);
        const size_t want =
            it != page.keys.end() && *it == probe
                ? static_cast<size_t>(it - page.keys.begin())
                : Page::kNotFound;
        for (const auto policy :
             {SearchPolicy::kBinary, SearchPolicy::kLinear,
              SearchPolicy::kExponential, SearchPolicy::kSimd}) {
          ASSERT_EQ(page.Find(probe, error, policy,
                              fitree::telemetry::Engine::kBuffered),
                    want)
              << "probe " << probe << " error " << error << " policy "
              << static_cast<int>(policy);
        }
      }
    }
  }
}

TEST(SegmentKernel, FindMatchesLowerBoundOnConePages) {
  for (const auto& keys :
       {fitree::datasets::Weblogs(20000, 3), fitree::datasets::Iot(20000, 5),
        fitree::datasets::Step(20000, 100)}) {
    for (const double error : {4.0, 32.0, 256.0}) {
      for (const auto feasibility :
           {Feasibility::kEndpointLine, Feasibility::kCone}) {
        ASSERT_NO_FATAL_FAILURE(CheckFindOnCutPages(keys, error, feasibility));
      }
    }
  }
}

// A model shifted past the error bound is caught by CheckErrorBound.
TEST(SegmentKernel, CheckErrorBoundRejectsShiftedModel) {
  const auto keys = fitree::datasets::Weblogs(5000, 9);
  const double error = 16.0;
  const auto models = fitree::SegmentShrinkingCone<int64_t>(keys, error);
  Page page;
  page.Assign(models.front(), keys, {});
  ASSERT_GT(page.keys.size(), 2 * (error + 3));
  ASSERT_TRUE(page.CheckErrorBound(error));
  page.intercept += error + 3.0;
  EXPECT_FALSE(page.CheckErrorBound(error));
}

}  // namespace
