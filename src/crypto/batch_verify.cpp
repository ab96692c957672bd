#include "crypto/batch_verify.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace sc::crypto {

std::vector<bool> batch_verify(const std::vector<VerifyJob>& jobs,
                               util::ThreadPool* pool) {
  // Byte-sized scratch results: concurrent writers to distinct slots of a
  // std::vector<bool> would race on the packed bits.
  std::vector<unsigned char> ok(jobs.size(), 0);

  const unsigned lanes = pool ? pool->size() + 1 : 1;
  if (lanes <= 1 || jobs.size() < 2) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      ok[i] = secp256k1::verify(jobs[i].pub, jobs[i].z, jobs[i].sig);
  } else {
    // Contiguous ranges, one per shard; verify cost is uniform enough that
    // static partitioning beats a shared claim counter here.
    const unsigned shards =
        static_cast<unsigned>(std::min<std::size_t>(lanes, jobs.size()));
    pool->for_shards(shards, [&](unsigned shard) {
      const std::size_t begin = jobs.size() * shard / shards;
      const std::size_t end = jobs.size() * (shard + 1) / shards;
      for (std::size_t i = begin; i < end; ++i)
        ok[i] = secp256k1::verify(jobs[i].pub, jobs[i].z, jobs[i].sig);
    });
  }

  return std::vector<bool>(ok.begin(), ok.end());
}

bool batch_verify_all(const std::vector<VerifyJob>& jobs, util::ThreadPool* pool) {
  const std::vector<bool> ok = batch_verify(jobs, pool);
  return std::all_of(ok.begin(), ok.end(), [](bool b) { return b; });
}

}  // namespace sc::crypto
