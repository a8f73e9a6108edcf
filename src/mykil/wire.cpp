#include "mykil/wire.h"

#include "common/error.h"
#include "crypto/sealed.h"
#include "crypto/sha256.h"

namespace mykil::core {

Bytes with_mac(ByteView fields) {
  Bytes out(fields.begin(), fields.end());
  append(out, crypto::Sha256::digest(fields));
  return out;
}

ByteView strip_mac(ByteView blob) {
  constexpr std::size_t kMacLen = crypto::Sha256::kDigestSize;
  if (blob.size() < kMacLen) throw AuthError("message shorter than its MAC");
  ByteView fields = blob.first(blob.size() - kMacLen);
  if (!ct_equal(crypto::Sha256::digest(fields), blob.last(kMacLen)))
    throw AuthError("message MAC mismatch");
  return fields;
}

Bytes envelope(MsgType type, ByteView box,
               const crypto::RsaPrivateKey* signer) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(signer != nullptr ? 1 : 0);
  w.bytes(box);
  if (signer != nullptr) {
    crypto::pk_count_sign();
    w.bytes(crypto::rsa_sign(*signer, box));
  }
  return w.take();
}

EnvelopeView parse_envelope_view(ByteView packet) {
  WireReader r(packet);
  EnvelopeView env;
  env.type = static_cast<MsgType>(r.u8());
  bool is_signed = r.u8() != 0;
  env.box = r.view();
  if (is_signed) env.sig = r.view();
  r.expect_done();
  return env;
}

bool verify_envelope(const EnvelopeView& env, const crypto::RsaPublicKey& pub) {
  if (env.sig.empty()) return false;
  crypto::pk_count_verify();
  return crypto::rsa_verify(pub, env.box, env.sig);
}

}  // namespace mykil::core
