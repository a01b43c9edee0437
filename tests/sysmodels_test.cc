// Comparison-system model tests (§7): functional correctness of each model
// and the architectural properties the Figure 13 shape depends on.

#include "sysmodels/models.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace masstree {
namespace {

template <typename M, typename O>
void BasicPutGet(O opts) {
  M model(opts);
  std::string row(40, 'x');
  EXPECT_TRUE(model.put("key1", ~0u, row));
  std::string out;
  ASSERT_TRUE(model.get("key1", &out));
  EXPECT_EQ(out.substr(0, 40), row);
  EXPECT_FALSE(model.get("nokey", &out));
  EXPECT_FALSE(model.put("key1", ~0u, row));  // update
}

TEST(Memcached, PutGet) { BasicPutGet<MemcachedModel>(MemcachedModel::Options{}); }
TEST(Redis, PutGet) { BasicPutGet<RedisModel>(RedisModel::Options{}); }
TEST(VoltDB, PutGet) {
  VoltDBModel::Options o;
  o.procedure_ns = 0;  // keep the test fast
  BasicPutGet<VoltDBModel>(o);
}
TEST(MongoDB, PutGet) {
  MongoDBModel::Options o;
  o.bson_ns = 0;
  BasicPutGet<MongoDBModel>(o);
}

TEST(Memcached, Capabilities) {
  MemcachedModel m{MemcachedModel::Options{}};
  EXPECT_TRUE(m.batched_get());
  EXPECT_FALSE(m.batched_put());   // Figure 12: no batched puts
  EXPECT_FALSE(m.supports_scan()); // hash table: no ranges
  EXPECT_FALSE(m.supports_column_put());
}

TEST(Redis, ColumnByteRanges) {
  RedisModel::Options o;
  o.command_dispatch_ns = 0;
  RedisModel m(o);
  std::string full(40, '\0');
  m.put("k", ~0u, full);
  m.put("k", 2, "ABCD");  // SETRANGE bytes 8..12
  std::string out;
  ASSERT_TRUE(m.get("k", &out));
  EXPECT_EQ(out.substr(8, 4), "ABCD");
  EXPECT_EQ(out[0], '\0');
}

TEST(VoltDB, RangeQueryScatterGather) {
  VoltDBModel::Options o;
  o.procedure_ns = 0;
  VoltDBModel m(o);
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "r%03d", i);
    m.put(buf, 0, "cccc");
  }
  std::string sink;
  size_t n = m.scan("r010", 10, 0, &sink);
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(sink.size(), 40u);  // 10 x 4-byte columns
}

TEST(MongoDB, DocumentRoundTrip) {
  MongoDBModel::Options o;
  o.bson_ns = 0;
  MongoDBModel m(o);
  std::string row;
  for (unsigned c = 0; c < 10; ++c) {
    row += "c" + std::to_string(c) + "__";
    row.resize((c + 1) * 4, '_');
  }
  m.put("doc1", ~0u, row);
  m.put("doc1", 3, "ZZZZ");
  std::string out;
  ASSERT_TRUE(m.get("doc1", &out));
  EXPECT_EQ(out.substr(12, 4), "ZZZZ");
  EXPECT_EQ(out.substr(0, 4), row.substr(0, 4));
}

TEST(MongoDB, GlobalWriteLockSerializesWriters) {
  // Writers to DIFFERENT keys in one instance must serialize; readers share.
  // The model records the peak number of threads inside its lock, so the
  // check needs no wall-clock comparison. Readers only overlap when both
  // threads run at once, which needs two hardware threads.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 hardware threads to observe reader overlap";
  }
  MongoDBModel::Options o;
  o.instances = 1;
  o.bson_ns = 20000;  // 20us inside the lock per op, so overlap is likely
  MongoDBModel m(o);
  m.put("a", ~0u, std::string(40, 'x'));
  m.put("b", ~0u, std::string(40, 'y'));

  constexpr int kOps = 50;
  auto round = [&](bool writes) {
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int w = 0; w < 2; ++w) {
      ts.emplace_back([&, w] {
        while (!go.load()) {
        }
        std::string out;
        for (int i = 0; i < kOps; ++i) {
          if (writes) {
            m.put(w ? "a" : "b", 0, "QQQQ");
          } else {
            m.get(w ? "a" : "b", &out);
          }
        }
      });
    }
    go = true;
    for (auto& t : ts) {
      t.join();
    }
  };
  // A loaded machine may not run both readers at once in a given round:
  // retry rounds until they overlap, up to a generous deadline.
  const uint64_t deadline = now_ns() + 60'000'000'000ull;
  do {
    round(false);
    round(true);
  } while (m.peak_readers() < 2 && now_ns() < deadline);
  EXPECT_EQ(m.peak_readers(), 2);
  EXPECT_EQ(m.peak_writers(), 1);
}

TEST(AllModels, ConcurrentMixedTraffic) {
  RedisModel::Options ro;
  ro.command_dispatch_ns = 0;
  MemcachedModel mc{MemcachedModel::Options{}};
  RedisModel rd(ro);
  std::vector<KVModel*> models = {&mc, &rd};
  for (KVModel* m : models) {
    std::vector<std::thread> ts;
    std::atomic<int> errors{0};
    for (int w = 0; w < 4; ++w) {
      ts.emplace_back([&, w] {
        std::string out;
        for (int i = 0; i < 2000; ++i) {
          std::string k = "t" + std::to_string(w) + "-" + std::to_string(i % 100);
          m->put(k, ~0u, std::string(40, static_cast<char>('a' + w)));
          if (m->get(k, &out) && out[0] != static_cast<char>('a' + w)) {
            ++errors;  // another worker's key leaked into ours
          }
        }
      });
    }
    for (auto& t : ts) {
      t.join();
    }
    EXPECT_EQ(errors.load(), 0) << m->name();
  }
}

}  // namespace
}  // namespace masstree
