// CRC32-C (Castagnoli polynomial, as in iSCSI and ext4).
// Crc32c uses the CPU's CRC instruction when it has one (SSE4.2 on x86-64,
// detected on the first call) and a byte-at-a-time table loop otherwise;
// both give the same value for every input. Users: the WAL record checksum,
// the PageFtl OOB entry and page-body checksums, net and replication frames,
// the delta codec's crc16, and the fuzz and crash-sweep fingerprints.

#pragma once

#include <cstddef>
#include <cstdint>

namespace ipa {

/// Compute CRC32-C over `data[0..len)`, chained from `seed` (0 to start):
/// Crc32c(b, nb, Crc32c(a, na)) is the CRC of `a` followed by `b`.
uint32_t Crc32c(const uint8_t* data, size_t len, uint32_t seed = 0);

/// The portable table loop behind Crc32c on CPUs without a CRC instruction.
/// Returns what Crc32c returns; tests run it as the reference on any host.
uint32_t Crc32cPortable(const uint8_t* data, size_t len, uint32_t seed = 0);

}  // namespace ipa
