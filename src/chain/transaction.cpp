#include "chain/transaction.hpp"

#include "crypto/keccak.hpp"
#include "util/serialize.hpp"

namespace sc::chain {

util::Bytes Transaction::body_bytes() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(nonce);
  w.raw(to.span());
  w.u64(value);
  w.u64(gas_limit);
  w.u64(gas_price);
  w.bytes(data);
  w.bytes(ctor_calldata);
  w.u8(static_cast<std::uint8_t>(protocol));
  w.bytes(protocol_payload);
  return std::move(w).take();
}

Hash256 Transaction::signing_hash() const { return crypto::keccak256(body_bytes()); }

Hash256 Transaction::id() const { return crypto::keccak256(encode()); }

Address Transaction::sender() const { return crypto::address_of(sender_pubkey); }

void Transaction::sign_with(const crypto::KeyPair& key) {
  sender_pubkey = key.public_key();
  signature = key.sign(signing_hash());
}

bool Transaction::verify_signature() const {
  if (!signature.is_low_s()) return false;
  return crypto::verify_signature(sender_pubkey, signing_hash(), signature);
}

util::Bytes Transaction::encode() const {
  util::Writer w;
  w.bytes(body_bytes());
  w.raw(crypto::secp256k1::encode_public(sender_pubkey));
  w.raw(signature.encode());
  return std::move(w).take();
}

std::optional<Transaction> Transaction::decode(util::ByteSpan wire) {
  util::Reader r(wire);
  const auto body = r.bytes();
  if (!body) return std::nullopt;
  const auto pub_raw = r.raw(64);
  if (!pub_raw) return std::nullopt;
  const auto sig_raw = r.raw(64);
  if (!sig_raw || !r.empty()) return std::nullopt;

  util::Reader br(*body);
  Transaction tx;
  const auto kind = br.u8();
  const auto nonce = br.u64();
  const auto to_raw = br.raw(20);
  const auto value = br.u64();
  const auto gas_limit = br.u64();
  const auto gas_price = br.u64();
  const auto data = br.bytes();
  const auto ctor = br.bytes();
  const auto protocol = br.u8();
  const auto payload = br.bytes();
  if (!kind || !nonce || !to_raw || !value || !gas_limit || !gas_price || !data ||
      !ctor || !protocol || !payload || !br.empty())
    return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(TxKind::kCall)) return std::nullopt;
  if (*protocol > static_cast<std::uint8_t>(ProtocolKind::kDetailedReport))
    return std::nullopt;

  tx.kind = static_cast<TxKind>(*kind);
  tx.nonce = *nonce;
  tx.to = Address::from_span(*to_raw);
  tx.value = *value;
  tx.gas_limit = *gas_limit;
  tx.gas_price = *gas_price;
  tx.data = *data;
  tx.ctor_calldata = *ctor;
  tx.protocol = static_cast<ProtocolKind>(*protocol);
  tx.protocol_payload = *payload;

  const auto pub = crypto::secp256k1::decode_public(*pub_raw);
  const auto sig = crypto::secp256k1::Signature::decode(*sig_raw);
  if (!pub || !sig) return std::nullopt;
  tx.sender_pubkey = *pub;
  tx.signature = *sig;
  return tx;
}

Address contract_address(const Address& sender, std::uint64_t nonce) {
  util::Writer w;
  w.raw(sender.span());
  w.u64(nonce);
  const Hash256 digest = crypto::keccak256(w.data());
  Address out;
  std::copy(digest.bytes.begin() + 12, digest.bytes.end(), out.bytes.begin());
  return out;
}

}  // namespace sc::chain
