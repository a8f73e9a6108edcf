#include "mykil/directory.h"

#include "common/error.h"
#include "crypto/sealed.h"

namespace mykil::core {

void AcDirectory::add(AcInfo info) {
  for (const AcInfo& e : entries_) {
    if (e.ac_id == info.ac_id) throw ProtocolError("duplicate AC id in directory");
  }
  entries_.push_back(std::move(info));
}

void AcDirectory::remove(AcId ac_id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->ac_id == ac_id) {
      entries_.erase(it);
      return;
    }
  }
}

const AcInfo* AcDirectory::find(AcId ac_id) const {
  for (const AcInfo& e : entries_) {
    if (e.ac_id == ac_id) return &e;
  }
  return nullptr;
}

void AcDirectory::promote_backup(AcId ac_id) {
  for (AcInfo& e : entries_) {
    if (e.ac_id != ac_id || !e.has_backup()) continue;
    // Swap rather than drop the demoted primary: it becomes the standby,
    // so a later takeover in the opposite direction (the old primary
    // recovers and the replacement fails) stays verifiable.
    std::swap(e.node, e.backup_node);
    std::swap(e.pubkey, e.backup_pubkey);
    return;
  }
}

bool AcDirectory::verify(AcId ac_id, ByteView data, ByteView sig) const {
  const AcInfo* info = find(ac_id);
  if (info == nullptr) return false;
  crypto::pk_count_verify();
  if (crypto::rsa_verify(crypto::RsaPublicKey::deserialize(info->pubkey), data,
                         sig))
    return true;
  if (!info->backup_pubkey.empty()) {
    crypto::pk_count_verify();
    return crypto::rsa_verify(
        crypto::RsaPublicKey::deserialize(info->backup_pubkey), data, sig);
  }
  return false;
}

bool AcDirectory::adopt(const AcDirectory& fresh) {
  if (fresh.version_ <= version_) return false;
  AcDirectory next = fresh;
  for (AcInfo& e : next.entries_) {
    const AcInfo* old = find(e.ac_id);
    if (old != nullptr && old->node == e.backup_node &&
        old->backup_node == e.node) {
      // We saw a takeover the RS hasn't: keep our orientation so signature
      // checks against the acting primary keep passing.
      std::swap(e.node, e.backup_node);
      std::swap(e.pubkey, e.backup_pubkey);
    }
  }
  *this = std::move(next);
  return true;
}

void AcDirectory::validate() const {
  for (const AcInfo& e : entries_)
    if (find(e.ac_id) != &e) throw ProtocolError("duplicate AC id in directory");
}

}  // namespace mykil::core
