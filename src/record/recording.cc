#include "src/record/recording.h"

namespace grt {

Bytes Recording::SerializeBody() const {
  ByteWriter w;
  w.PutU32(header.magic);
  w.PutU32(header.version);
  w.PutString(header.workload);
  w.PutU32(static_cast<uint32_t>(header.sku));
  w.PutU64(header.record_nonce);
  w.PutU32(header.segment_index);
  w.PutU32(header.segment_count);

  w.PutBool(header.footprint.computed);
  auto put_ranges = [&w](const std::vector<FootprintRange>& ranges) {
    w.PutU32(static_cast<uint32_t>(ranges.size()));
    for (const FootprintRange& range : ranges) {
      w.PutU64(range.lo);
      w.PutU64(range.hi);
      w.PutU8(range.access);
    }
  };
  put_ranges(header.footprint.regs);
  put_ranges(header.footprint.pages);
  w.PutU8(header.footprint.irq_lines);
  w.PutU8(header.footprint.irq_external);
  w.PutU32(header.footprint.slot_write_mask);
  w.PutU32(header.footprint.as_write_mask);

  w.PutU32(static_cast<uint32_t>(bindings.size()));
  for (const auto& [name, b] : bindings) {
    w.PutString(name);
    w.PutU64(b.va);
    w.PutU64(b.n_floats);
    w.PutU32(static_cast<uint32_t>(b.pages.size()));
    for (uint64_t p : b.pages) {
      w.PutU64(p);
    }
    w.PutBool(b.writable_at_replay);
  }

  w.PutBytes(log.Serialize());
  return w.Take();
}

Bytes Recording::SerializeSigned(const Bytes& key) const {
  Bytes body = SerializeBody();
  Sha256Digest mac = HmacSha256(key, body);
  ByteWriter w;
  w.PutBytes(body);
  w.PutRaw(mac.data(), mac.size());
  return w.Take();
}

Result<Recording> Recording::ParseUnsigned(const Bytes& body) {
  ByteReader r(body);
  Recording rec;
  GRT_ASSIGN_OR_RETURN(rec.header.magic, r.ReadU32());
  if (rec.header.magic != RecordingHeader{}.magic) {
    return IntegrityViolation("bad recording magic");
  }
  GRT_ASSIGN_OR_RETURN(rec.header.version, r.ReadU32());
  if (rec.header.version != kRecordingVersion) {
    return IntegrityViolation("unsupported recording version");
  }
  GRT_ASSIGN_OR_RETURN(rec.header.workload, r.ReadString());
  GRT_ASSIGN_OR_RETURN(uint32_t sku_raw, r.ReadU32());
  rec.header.sku = static_cast<SkuId>(sku_raw);
  GRT_ASSIGN_OR_RETURN(rec.header.record_nonce, r.ReadU64());
  GRT_ASSIGN_OR_RETURN(rec.header.segment_index, r.ReadU32());
  GRT_ASSIGN_OR_RETURN(rec.header.segment_count, r.ReadU32());

  GRT_ASSIGN_OR_RETURN(rec.header.footprint.computed, r.ReadBool());
  auto read_ranges =
      [&r](std::vector<FootprintRange>* ranges) -> Status {
    GRT_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t i = 0; i < count; ++i) {
      FootprintRange range;
      GRT_ASSIGN_OR_RETURN(range.lo, r.ReadU64());
      GRT_ASSIGN_OR_RETURN(range.hi, r.ReadU64());
      GRT_ASSIGN_OR_RETURN(range.access, r.ReadU8());
      ranges->push_back(range);
    }
    return OkStatus();
  };
  GRT_RETURN_IF_ERROR(read_ranges(&rec.header.footprint.regs));
  GRT_RETURN_IF_ERROR(read_ranges(&rec.header.footprint.pages));
  GRT_ASSIGN_OR_RETURN(rec.header.footprint.irq_lines, r.ReadU8());
  GRT_ASSIGN_OR_RETURN(rec.header.footprint.irq_external, r.ReadU8());
  GRT_ASSIGN_OR_RETURN(rec.header.footprint.slot_write_mask, r.ReadU32());
  GRT_ASSIGN_OR_RETURN(rec.header.footprint.as_write_mask, r.ReadU32());

  GRT_ASSIGN_OR_RETURN(uint32_t n_bindings, r.ReadU32());
  for (uint32_t i = 0; i < n_bindings; ++i) {
    GRT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    TensorBinding b;
    GRT_ASSIGN_OR_RETURN(b.va, r.ReadU64());
    GRT_ASSIGN_OR_RETURN(b.n_floats, r.ReadU64());
    GRT_ASSIGN_OR_RETURN(uint32_t n_pages, r.ReadU32());
    for (uint32_t p = 0; p < n_pages; ++p) {
      GRT_ASSIGN_OR_RETURN(uint64_t pa, r.ReadU64());
      b.pages.push_back(pa);
    }
    GRT_ASSIGN_OR_RETURN(b.writable_at_replay, r.ReadBool());
    rec.bindings[name] = std::move(b);
  }

  GRT_ASSIGN_OR_RETURN(Bytes log_bytes, r.ReadBytes());
  GRT_ASSIGN_OR_RETURN(rec.log, InteractionLog::Deserialize(log_bytes));
  return rec;
}

Result<Recording> Recording::ParseSigned(const Bytes& raw, const Bytes& key) {
  ByteReader r(raw);
  GRT_ASSIGN_OR_RETURN(Bytes body, r.ReadBytes());
  Sha256Digest mac;
  GRT_RETURN_IF_ERROR(r.ReadRaw(mac.data(), mac.size()));
  Sha256Digest expected = HmacSha256(key, body);
  if (expected != mac) {
    return IntegrityViolation("recording signature verification failed");
  }
  return ParseUnsigned(body);
}

}  // namespace grt
