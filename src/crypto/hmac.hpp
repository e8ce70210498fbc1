// HMAC (RFC 2104) instantiated with SHA-256.
#pragma once

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace sos::crypto {

Sha256::Digest hmac_sha256(util::ByteView key, util::ByteView msg);

}  // namespace sos::crypto
