// Unit tests for the service scheduler's building blocks: the bounded
// two-lane job queue (admission, lane priority, oldest-first order,
// exactly-once delivery under contention and drain), the incremental frame
// decoder behind the epoll ingest loop, the EventPoller wrapper on both
// of its backends, and the submit-header wire compatibility.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/service/job_queue.hpp"
#include "src/service/protocol.hpp"
#include "src/util/epoll.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace satproof::service {
namespace {

QueuedJob make_job(std::uint64_t id, Lane lane = Lane::kFast) {
  QueuedJob job;
  job.request.id = id;
  job.lane = lane;
  return job;
}

// -------------------------------------------------------------- JobQueue

using Enqueued = JobQueue::EnqueueResult;

TEST(JobQueue, FifoWithinALane) {
  JobQueue q(16);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_EQ(q.try_enqueue(make_job(id)), Enqueued::kAccepted);
  }
  EXPECT_EQ(q.depth(), 5u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto job = q.pop_blocking();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->request.id, id);
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueue, FastLaneOvertakesEarlierBulkJobs) {
  JobQueue q(16);
  ASSERT_EQ(q.try_enqueue(make_job(1, Lane::kBulk)), Enqueued::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(2, Lane::kBulk)), Enqueued::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(3, Lane::kFast)), Enqueued::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(4, Lane::kFast)), Enqueued::kAccepted);
  q.close();

  std::vector<std::uint64_t> order;
  while (auto job = q.pop_blocking()) order.push_back(job->request.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 1, 2}));
}

TEST(JobQueue, EachLaneIsTakenOldestFirstAcrossWorkers) {
  // Every job is queued before the workers start, so each worker must see
  // all of its fast jobs before its bulk jobs, and ascending IDs within a
  // lane: no worker may take a job while an older one of its lane waits.
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kJobs = 400;
  JobQueue q(kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_EQ(q.try_enqueue(make_job(id, id % 3 == 0 ? Lane::kBulk
                                                     : Lane::kFast)),
              Enqueued::kAccepted);
  }
  q.close();

  std::vector<std::vector<QueuedJob>> taken(kWorkers);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&q, &mine = taken[w]] {
      while (auto job = q.pop_blocking()) mine.push_back(std::move(*job));
    });
  }
  for (auto& t : workers) t.join();

  std::size_t total = 0;
  for (const auto& mine : taken) {
    total += mine.size();
    for (std::size_t i = 1; i < mine.size(); ++i) {
      const QueuedJob& prev = mine[i - 1];
      const QueuedJob& cur = mine[i];
      EXPECT_LE(prev.lane, cur.lane) << "bulk job taken before a fast one";
      if (prev.lane == cur.lane) {
        EXPECT_LT(prev.request.id, cur.request.id)
            << "job " << cur.request.id << " taken after a newer one";
      }
    }
  }
  EXPECT_EQ(total, kJobs);
}

TEST(JobQueue, CapacityIsNeverExceededByConcurrentProducers) {
  constexpr std::size_t kCapacity = 8;
  constexpr unsigned kProducers = 4;
  JobQueue q(kCapacity);
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> full{0};
  std::atomic<bool> over_capacity{false};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const Enqueued res = q.try_enqueue(make_job(p * 50 + i + 1));
        (res == Enqueued::kAccepted ? accepted : full).fetch_add(1);
        if (q.depth() > kCapacity) over_capacity = true;
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(over_capacity.load());
  EXPECT_EQ(accepted.load(), kCapacity);
  EXPECT_EQ(full.load(), kProducers * 50 - kCapacity);
  EXPECT_EQ(q.depth(), kCapacity);

  // A taken job frees exactly one slot.
  ASSERT_TRUE(q.pop_blocking().has_value());
  EXPECT_EQ(q.try_enqueue(make_job(1000)), Enqueued::kAccepted);
  EXPECT_EQ(q.try_enqueue(make_job(1001)), Enqueued::kFull);
}

TEST(JobQueue, CloseRefusesNewWorkButDrainsQueuedJobs) {
  JobQueue q(8);
  ASSERT_EQ(q.try_enqueue(make_job(1)), Enqueued::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(2)), Enqueued::kAccepted);
  q.close();
  EXPECT_EQ(q.try_enqueue(make_job(3)), Enqueued::kClosed);
  // pop_blocking drains the queued work, then reports shutdown.
  EXPECT_TRUE(q.pop_blocking().has_value());
  EXPECT_TRUE(q.pop_blocking().has_value());
  EXPECT_FALSE(q.pop_blocking().has_value());
  EXPECT_FALSE(q.pop_blocking().has_value());
  EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueue, EveryJobIsExecutedExactlyOnceUnderContention) {
  constexpr unsigned kWorkers = 4;
  constexpr unsigned kProducers = 3;
  constexpr std::uint64_t kJobsPerProducer = 400;
  JobQueue q(kProducers * kJobsPerProducer);

  std::mutex seen_mutex;
  std::vector<std::uint64_t> seen;
  std::vector<std::thread> consumers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    consumers.emplace_back([&] {
      while (auto job = q.pop_blocking()) {
        std::lock_guard lock(seen_mutex);
        seen.push_back(job->request.id);
      }
    });
  }

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kJobsPerProducer; ++i) {
        const std::uint64_t id = p * kJobsPerProducer + i + 1;
        const Lane lane = i % 3 == 0 ? Lane::kBulk : Lane::kFast;
        ASSERT_EQ(q.try_enqueue(make_job(id, lane)), Enqueued::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(seen.size(), kProducers * kJobsPerProducer);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], i + 1) << "job lost or duplicated";
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(JobQueue, DrainRacingProducersAndWorkersLosesNothing) {
  // close() races against workers that are actively popping and against
  // a second producer: every job admitted before the close must still be
  // handed out exactly once, and every pop_blocking must return nullopt
  // afterwards.
  for (int round = 0; round < 20; ++round) {
    constexpr unsigned kWorkers = 4;
    JobQueue q(64);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> popped{0};

    std::vector<std::thread> consumers;
    for (unsigned w = 0; w < kWorkers; ++w) {
      consumers.emplace_back([&] {
        while (q.pop_blocking()) popped.fetch_add(1);
      });
    }
    std::vector<std::thread> producers;
    for (std::uint64_t first : {1u, 1001u}) {
      producers.emplace_back([&, first] {
        for (std::uint64_t id = first; id < first + 200; ++id) {
          const auto res = q.try_enqueue(
              make_job(id, id % 4 == 0 ? Lane::kBulk : Lane::kFast));
          if (res == Enqueued::kAccepted) {
            accepted.fetch_add(1);
          } else if (res == Enqueued::kClosed) {
            break;
          }
          if (id == 100) q.close();  // close mid-stream, from a producer
        }
      });
    }
    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(popped.load(), accepted.load());
    EXPECT_EQ(q.depth(), 0u);
  }
}

// ---------------------------------------------------------- FrameDecoder

std::vector<std::uint8_t> wire_frame(FrameTag tag,
                                     const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(tag));
  append_u32le(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(FrameDecoderTest, ReassemblesAFrameFedOneByteAtATime) {
  const std::vector<std::uint8_t> wire =
      wire_frame(FrameTag::kCnfData, {1, 2, 3, 4});
  FrameDecoder dec;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kNeedMore);
    EXPECT_TRUE(dec.mid_frame());
  }
  dec.feed(&wire.back(), 1);
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kCnfData);
  EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameDecoderTest, DrainsMultiplePipelinedFramesFromOneFeed) {
  std::vector<std::uint8_t> wire = wire_frame(FrameTag::kSubmitEnd, {});
  const auto second = wire_frame(FrameTag::kStats, {});
  wire.insert(wire.end(), second.begin(), second.end());

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kSubmitEnd);
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kStats);
  EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, OversizedDeclaredLengthIsRejectedFromTheHeader) {
  FrameDecoder dec(/*max_payload=*/16);
  std::vector<std::uint8_t> header;
  header.push_back(static_cast<std::uint8_t>(FrameTag::kCnfData));
  append_u32le(header, 17);  // one past the cap; no payload bytes needed
  dec.feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kOversized);
}

// ----------------------------------------------------------- EventPoller

#if !defined(_WIN32)

class EventPollerBackends
    : public ::testing::TestWithParam<util::EventPoller::Backend> {};

TEST_P(EventPollerBackends, ReportsReadableAndHonoursInterest) {
  util::EventPoller poller(GetParam());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  poller.add(fds[0], /*key=*/7, /*want_read=*/true, /*want_write=*/false);
  std::vector<util::PollEvent> events;

  // Nothing buffered: a zero timeout returns immediately with no events.
  EXPECT_EQ(poller.wait(0, events), 0u);

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].key, 7u);
  EXPECT_TRUE(events[0].readable);

  // Dropping read interest silences the (still readable) descriptor.
  poller.modify(fds[0], /*want_read=*/false, /*want_write=*/false);
  EXPECT_EQ(poller.wait(0, events), 0u);

  poller.remove(fds[0]);
  EXPECT_EQ(poller.size(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(EventPollerBackends, WriteInterestFiresOnAWritablePipe) {
  util::EventPoller poller(GetParam());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  poller.add(fds[1], /*key=*/9, /*want_read=*/false, /*want_write=*/true);
  std::vector<util::PollEvent> events;
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].key, 9u);
  EXPECT_TRUE(events[0].writable);
  poller.remove(fds[1]);
  ::close(fds[0]);
  ::close(fds[1]);
}

#if defined(__linux__)
INSTANTIATE_TEST_SUITE_P(AllBackends, EventPollerBackends,
                         ::testing::Values(util::EventPoller::Backend::kEpoll,
                                           util::EventPoller::Backend::kPoll),
                         [](const auto& info) {
                           return info.param ==
                                          util::EventPoller::Backend::kEpoll
                                      ? "epoll"
                                      : "poll";
                         });
#else
INSTANTIATE_TEST_SUITE_P(AllBackends, EventPollerBackends,
                         ::testing::Values(util::EventPoller::Backend::kPoll),
                         [](const auto&) { return std::string("poll"); });
#endif

#endif  // !_WIN32

// ---------------------------------------------------- SubmitHeader compat

TEST(SubmitHeaderCompat, DeclaredBytesRoundTripInThe18ByteEncoding) {
  SubmitHeader h;
  h.backend = 2;
  h.flags = kSubmitFlagWait;
  h.timeout_ms = 1234;
  h.jobs = 3;
  h.declared_bytes = (5u << 20) + 17;
  const std::vector<std::uint8_t> wire = encode_submit_header(h);
  ASSERT_EQ(wire.size(), 18u);

  SubmitHeader back;
  ASSERT_TRUE(decode_submit_header(wire, back));
  EXPECT_EQ(back.declared_bytes, h.declared_bytes);
  EXPECT_EQ(back.timeout_ms, h.timeout_ms);
}

TEST(SubmitHeaderCompat, Legacy10ByteHeaderStillDecodesWithZeroDeclared) {
  SubmitHeader h;
  h.backend = 1;
  h.jobs = 2;
  h.declared_bytes = 999;  // must NOT survive a legacy truncation
  std::vector<std::uint8_t> wire = encode_submit_header(h);
  wire.resize(10);  // what a pre-declared-bytes client would have sent

  SubmitHeader back;
  ASSERT_TRUE(decode_submit_header(wire, back));
  EXPECT_EQ(back.backend, 1);
  EXPECT_EQ(back.jobs, 2u);
  EXPECT_EQ(back.declared_bytes, 0u);
}

TEST(SubmitHeaderCompat, LaneThresholdClassifiesDeclaredSizes) {
  EXPECT_EQ(lane_for_bytes(0), Lane::kFast);
  EXPECT_EQ(lane_for_bytes(kBulkLaneThresholdBytes - 1), Lane::kFast);
  EXPECT_EQ(lane_for_bytes(kBulkLaneThresholdBytes), Lane::kBulk);
}

}  // namespace
}  // namespace satproof::service
