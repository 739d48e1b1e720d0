#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/status.h"

/// \file client.h
/// Client library for the SABER network front end (src/net/server.h), used
/// by `saber_cli --connect`, the examples and the net benchmark. One class
/// per plane:
///
///  - ControlClient: SQL submit / remove / drain, and result subscription.
///    Strictly request → response; not thread-safe.
///  - ProducerClient: one producer shard of one query input. Send() chunks
///    arbitrarily large tuple runs into kTuples frames; a full server-side
///    staging ring surfaces as Send() blocking (TCP back-pressure), exactly
///    like an in-process ProducerHandle::Append.

namespace saber::net {

class ControlClient {
 public:
  /// Dials and runs the control handshake. `connect_timeout_ms > 0` bounds
  /// each TCP connect (see Dial); `connect_attempts > 1` retries a failed
  /// dial with bounded exponential backoff (50 ms doubling to 2 s) — for
  /// racing a server that is still binding its port.
  static Result<ControlClient> Connect(const std::string& host, int port,
                                       int connect_timeout_ms = 0,
                                       int connect_attempts = 1);

  ControlClient() = default;
  ControlClient(ControlClient&&) = default;
  ControlClient& operator=(ControlClient&&) = default;

  /// Submits one SQL statement; on success returns the admitted query's
  /// wire id, schemas and tuple sizes. A server-side parse/admission error
  /// comes back as the server's own Status.
  Result<QueryInfo> Submit(const std::string& sql);

  /// Removes a query: quiesces its data plane, flushes the window remainder
  /// through its sink, retires it. Subscribed connections (including this
  /// one) receive kSubscribeEnd.
  Status Remove(uint32_t query_id);

  /// Blocks until every currently bound producer shard of the query has
  /// ended and all staged tuples are merged into the engine. The engine may
  /// still be executing tasks cut from them (and holds back the sub-φ
  /// remainder) when this returns; Remove flushes and waits for both.
  Status Drain(uint32_t query_id);

  /// Subscribes this connection to the query's result batches. After this,
  /// interleave NextBatch with other commands at your own peril: batches
  /// arrive asynchronously, so NextBatch is the only safe read.
  Status Subscribe(uint32_t query_id);

  /// Reads the next result batch into *batch. Returns false when the
  /// subscription ended (query removed), true with tuple bytes otherwise.
  Result<bool> NextBatch(std::vector<uint8_t>* batch);

  bool valid() const { return sock_.valid(); }
  void Close() { sock_.Close(); }
  /// Wakes a NextBatch blocked in recv from another thread.
  void Shutdown() { sock_.ShutdownBoth(); }

 private:
  /// Sends a u32-payload command and awaits kOk (or decodes kError).
  Status SimpleCommand(FrameType type, uint32_t query_id);

  Socket sock_;
};

/// Reconnect/resume behavior of a ProducerClient. Off by default (a lost
/// connection fails the Send, the historical contract). With
/// `max_attempts > 0` — and a server running a reconnect grace window
/// (ServerOptions::reconnect_grace_ms) — a mid-stream connection loss is
/// repaired transparently: the client redials with bounded exponential
/// backoff, presents its resume token, and replays every byte past the
/// acked sequence the server reports, so the appended stream is
/// byte-identical to the uninterrupted run.
struct ReconnectPolicy {
  /// Bound on each TCP connect, initial dial included (see Dial). 0 keeps
  /// the OS-default blocking connect.
  int connect_timeout_ms = 0;
  /// Reconnect attempts after a mid-stream loss; 0 disables reconnection.
  int max_attempts = 0;
  /// Backoff before the first / between attempts, doubling per attempt.
  int initial_backoff_ms = 50;
  int max_backoff_ms = 2'000;
  /// Replay ring capacity: the newest sent-but-possibly-unacked bytes kept
  /// for resume. Must exceed the server's in-flight window (TCP buffers +
  /// one frame); a resume whose gap outgrew the ring fails with
  /// ResourceExhausted rather than splicing a hole into the stream.
  size_t replay_buffer_bytes = size_t{8} << 20;
};

class ProducerClient {
 public:
  /// Dials and binds to producer shard `hello.producer` of input
  /// `hello.input` of query `hello.query_id`. `hello.version` is filled in;
  /// everything else (num_producers, tuple_size, lateness, policy, rate) is
  /// the caller's negotiation. Fails if the shard is already bound or the
  /// hello does not match the query (the server's error comes back as-is).
  /// The server's resume token is captured from the kHelloOk; `policy`
  /// governs reconnection (see ReconnectPolicy).
  static Result<ProducerClient> Connect(const std::string& host, int port,
                                        DataHello hello,
                                        ReconnectPolicy policy = {});

  ProducerClient() = default;
  ProducerClient(ProducerClient&&) = default;
  ProducerClient& operator=(ProducerClient&&) = default;

  /// Appends whole tuples (bytes must be a multiple of the hello's
  /// tuple_size). Chunks to the frame bound on tuple boundaries; blocks on
  /// server back-pressure. The data plane is one-way until End(), so a
  /// server-side rejection (late tuple under abort semantics, framing
  /// violation) typically surfaces as an IOError on a later Send — call
  /// LastServerError() for the kError the server left behind. With a
  /// ReconnectPolicy armed, a connection loss is repaired in place (see
  /// ReconnectPolicy); Send fails only once the attempts are exhausted or
  /// the server rejects the resume.
  Status Send(const void* tuples, size_t bytes);

  /// Ends the stream: kDataEnd, awaits kDataEndOk. The shard closes and the
  /// watermark releases. The connection is unusable afterwards. Both a send
  /// failure and a failed kDataEndOk read are repaired via the
  /// ReconnectPolicy, up to max_attempts resume rounds (a drop the kernel
  /// absorbed silently often surfaces only here, and under a sustained
  /// storm the replayed tail itself can be severed again); a server that
  /// already closed the shard rejects the resume and that rejection is
  /// returned.
  Status End();

  /// Abandons the stream (no kDataEnd). The server treats the disconnect
  /// like an orderly Close: the shard finishes and the watermark releases.
  void Close() { sock_.Close(); }

  /// After a failed Send/End: tries to read the server's parting kError off
  /// the socket (best-effort, 100 ms budget). Internal if there is none.
  Status LastServerError();

  bool valid() const { return sock_.valid(); }
  size_t tuple_size() const { return tuple_size_; }
  /// Successful mid-stream reconnects (resume handshakes that replayed).
  int64_t reconnects() const { return reconnects_; }
  /// The server-issued resume token (0 before Connect / from old servers).
  uint64_t resume_token() const { return resume_token_; }

 private:
  /// Appends `n` bytes to the replay ring (evicting the oldest beyond
  /// capacity) and advances the sent sequence.
  void RecordSent(const uint8_t* p, size_t n);
  /// Bounded-backoff redial + resume handshake + tail replay. `cause` is
  /// returned when reconnection is disabled or exhausted; a server-side
  /// rejection of the resume is returned immediately (retrying a rejected
  /// token cannot succeed).
  Status Reconnect(Status cause);

  Socket sock_;
  size_t tuple_size_ = 0;
  uint32_t max_chunk_ = kMaxFramePayload;

  /// Resume state (see ReconnectPolicy).
  std::string host_;
  int port_ = 0;
  DataHello hello_;
  ReconnectPolicy policy_;
  uint64_t resume_token_ = 0;
  int64_t reconnects_ = 0;
  /// Replay ring: the last `replay_.size()` bytes of the sent sequence;
  /// `sent_bytes_ - replay_.size()` is the stream offset of replay_[0].
  std::vector<uint8_t> replay_;
  int64_t sent_bytes_ = 0;
};

}  // namespace saber::net
