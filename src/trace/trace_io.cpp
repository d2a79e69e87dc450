#include "trace/trace_io.hpp"

#include <cstddef>
#include <cstring>
#include <ostream>
#include <span>
#include <stdexcept>

#include "trace/trace_stream.hpp"

namespace farmer {

namespace {

void check_count(std::uint64_t count, std::uint64_t min_entry_bytes,
                 std::uint64_t remaining, const char* what) {
  if (count > remaining / min_entry_bytes)
    throw std::runtime_error(std::string(what) +
                             " count exceeds remaining file size");
}

void validate_token(TokenId t, const TraceDictionary& d, const char* what) {
  if (t.valid() && t.value() >= d.tokens.size())
    throw std::runtime_error(std::string(what) + " token id out of range");
}

void validate_path_component(TokenId t, const TraceDictionary& d) {
  if (!t.valid() || t.value() >= d.tokens.size())
    throw std::runtime_error("path component token id out of range");
}

void validate_file_meta(const FileMeta& f, const TraceDictionary& d) {
  if (f.path.valid() && f.path.value() >= d.paths.size())
    throw std::runtime_error("file meta path id out of range");
  validate_token(f.dev, d, "file meta dev");
  validate_token(f.fid, d, "file meta fid");
}

// Per-entry minimum encoded sizes used to bound decoded counts: a token is
// at least its u32 length prefix, a path at least its u32 component count,
// a file meta row exactly 21 bytes.
constexpr std::uint64_t kMinTokenBytes = 4;
constexpr std::uint64_t kMinPathBytes = 4;
constexpr std::uint64_t kFileMetaBytes = 21;

}  // namespace

void encode_dictionary(std::string& out, const TraceDictionary& d) {
  const auto raw = [&out](const auto& v) {
    static_assert(std::is_trivially_copyable_v<
                  std::remove_cvref_t<decltype(v)>>);
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };

  raw(static_cast<std::uint32_t>(d.tokens.size()));
  for (std::uint32_t i = 0; i < d.tokens.size(); ++i) {
    const std::string_view s = d.tokens.resolve(TokenId(i));
    raw(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }

  raw(static_cast<std::uint32_t>(d.paths.size()));
  for (const auto& comps : d.paths) {
    raw(static_cast<std::uint32_t>(comps.size()));
    for (TokenId t : comps) raw(t.value());
  }

  raw(static_cast<std::uint32_t>(d.files.size()));
  for (const FileMeta& f : d.files) {
    raw(f.path.value());
    raw(f.dev.value());
    raw(f.fid.value());
    raw(f.group);
    raw(f.size_bytes);
    raw(static_cast<std::uint8_t>(f.read_only ? 1 : 0));
  }
}

void decode_dictionary(ByteReader& in, TraceDictionary& d) {
  const auto ntokens = in.get<std::uint32_t>();
  check_count(ntokens, kMinTokenBytes, in.remaining(), "token");
  for (std::uint32_t i = 0; i < ntokens; ++i) {
    const auto len = in.get<std::uint32_t>();
    const TokenId id = d.tokens.intern(in.view(len));
    if (id.value() != i)
      throw std::runtime_error("token table corrupt (duplicate strings)");
  }

  const auto npaths = in.get<std::uint32_t>();
  check_count(npaths, kMinPathBytes, in.remaining(), "path");
  d.paths.reserve(npaths);
  for (std::uint32_t i = 0; i < npaths; ++i) {
    const auto ncomp = in.get<std::uint32_t>();
    check_count(ncomp, 4, in.remaining(), "path component");
    SmallVector<TokenId, 8> comps;
    for (std::uint32_t c = 0; c < ncomp; ++c) {
      const TokenId t(in.get<std::uint32_t>());
      validate_path_component(t, d);
      comps.push_back(t);
    }
    (void)d.add_path(std::move(comps));
  }

  const auto nfiles = in.get<std::uint32_t>();
  check_count(nfiles, kFileMetaBytes, in.remaining(), "file");
  d.files.reserve(nfiles);
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    FileMeta f;
    f.path = PathId(in.get<std::uint32_t>());
    f.dev = TokenId(in.get<std::uint32_t>());
    f.fid = TokenId(in.get<std::uint32_t>());
    f.group = in.get<std::uint32_t>();
    f.size_bytes = in.get<std::uint32_t>();
    f.read_only = in.get<std::uint8_t>() != 0;
    validate_file_meta(f, d);
    d.files.push_back(f);
  }
}

TraceKind validate_trace_kind(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(TraceKind::kCustom))
    throw std::runtime_error("trace kind out of range");
  return static_cast<TraceKind>(raw);
}

void validate_record(const TraceRecord& rec, const TraceDictionary& dict) {
  if (!rec.file.valid() || rec.file.value() >= dict.files.size())
    throw std::runtime_error("record file id out of range");
  if (static_cast<std::uint8_t>(rec.op) >
      static_cast<std::uint8_t>(OpType::kClose))
    throw std::runtime_error("record op out of range");
  if (rec.path.valid() && rec.path.value() >= dict.paths.size())
    throw std::runtime_error("record path id out of range");
  validate_token(rec.user_token, dict, "record user");
  validate_token(rec.process_token, dict, "record process");
  validate_token(rec.host_token, dict, "record host");
  validate_token(rec.dev_token, dict, "record dev");
  validate_token(rec.fid_token, dict, "record fid");
  validate_token(rec.program_token, dict, "record program");
}

// This must go through raw byte writes: zeroing a TraceRecord and
// assigning members looks equivalent, but the compiler may fuse that into a
// whole-struct copy (destination padding is indeterminate after member
// assignment) and drag the source's padding along — memset + per-field
// memcpy into a byte buffer has no such latitude.
void canonical_bytes(const TraceRecord& r, unsigned char* out) noexcept {
  std::memset(out, 0, sizeof(TraceRecord));
  const auto put = [out](std::size_t off, const auto& v) {
    std::memcpy(out + off, &v, sizeof v);
  };
  put(offsetof(TraceRecord, timestamp), r.timestamp);
  put(offsetof(TraceRecord, file), r.file);
  put(offsetof(TraceRecord, user), r.user);
  put(offsetof(TraceRecord, process), r.process);
  put(offsetof(TraceRecord, host), r.host);
  put(offsetof(TraceRecord, job), r.job);
  put(offsetof(TraceRecord, path), r.path);
  put(offsetof(TraceRecord, user_token), r.user_token);
  put(offsetof(TraceRecord, process_token), r.process_token);
  put(offsetof(TraceRecord, host_token), r.host_token);
  put(offsetof(TraceRecord, dev_token), r.dev_token);
  put(offsetof(TraceRecord, fid_token), r.fid_token);
  put(offsetof(TraceRecord, program_token), r.program_token);
  put(offsetof(TraceRecord, size_bytes), r.size_bytes);
  put(offsetof(TraceRecord, op), r.op);
}

void write_trace_binary(const Trace& trace, const std::string& path) {
  TraceWriter writer(path, trace.kind, trace.has_paths);
  writer.append(std::span<const TraceRecord>(trace.records));
  writer.finish(trace.name, *trace.dict);
}

Trace read_trace_binary(const std::string& path) {
  return TraceReader(path).materialize();
}

void write_trace_tsv(const Trace& trace, std::ostream& os,
                     std::size_t max_records) {
  const TraceDictionary& d = *trace.dict;
  os << "timestamp_us\tfile\tuser\tpid\thost\tprogram\tpath\top\n";
  std::size_t n = 0;
  for (const TraceRecord& r : trace.records) {
    if (n++ >= max_records) break;
    os << r.timestamp << '\t' << r.file.value() << '\t'
       << d.tokens.resolve(r.user_token) << '\t'
       << d.tokens.resolve(r.process_token) << '\t'
       << d.tokens.resolve(r.host_token) << '\t'
       << d.tokens.resolve(r.program_token) << '\t'
       << (r.path.valid() ? d.path_string(r.path) : std::string("-")) << '\t'
       << static_cast<int>(r.op) << '\n';
  }
}

}  // namespace farmer
