// Abstract TLS-handshake cost model (DESIGN.md §15).
//
// No crypto — the model charges what a TLS handshake costs a server:
// extra round trips (flight counts) and CPU time (a key-exchange delay on
// the first server flight). A connection on the TLS port moves
// kSynRcvd -> kTlsHandshake after the TCP handshake and stays there until
// `client_flights` handshake records (first payload byte 0x16) have been
// consumed, each answered by one server flight; only then does it reach
// kEstablished and serve requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ht::dut::stateful {

struct TlsConfig {
  std::uint16_t client_flights = 1;   ///< client records before established
  std::uint64_t crypto_ns = 20'000;   ///< key-exchange cost, first flight only
  std::size_t flight_bytes = 90;      ///< server flight payload size
};

class TlsModel {
 public:
  /// First byte of every handshake record in the model (TLS "handshake"
  /// content type).
  static constexpr std::uint8_t kRecordType = 0x16;

  explicit TlsModel(TlsConfig cfg = {}) : cfg_(cfg) {}
  const TlsConfig& config() const { return cfg_; }
  std::uint16_t client_flights() const { return cfg_.client_flights; }

  /// Extra processing delay charged before the server's reply to client
  /// flight `flight_idx` (0-based): the key exchange bills once.
  std::uint64_t flight_delay_ns(std::uint16_t flight_idx) const {
    return flight_idx == 0 ? cfg_.crypto_ns : 0;
  }

  /// Server flight payload: record type + legacy version + filler.
  std::string flight_payload() const {
    std::string p;
    p.push_back(static_cast<char>(kRecordType));
    p.push_back(0x03);
    p.push_back(0x03);
    if (cfg_.flight_bytes > p.size()) p.append(cfg_.flight_bytes - p.size(), 'h');
    return p;
  }

 private:
  TlsConfig cfg_;
};

}  // namespace ht::dut::stateful
