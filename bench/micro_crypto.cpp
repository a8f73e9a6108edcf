// Microbenchmarks (google-benchmark) of the primitives every protocol
// operation is built from, plus the key-tree hot paths. These are the
// "why" behind the V-D latency numbers.
//
// Besides the google-benchmark suite, `--json_out=PATH` runs a fixed
// chrono-timed pass over the RSA/modexp hot paths and writes the results
// via bench::BenchJson (BENCH_crypto.json at the repo root records the
// trajectory across commits). `--json_only` skips the google-benchmark
// pass; `--smoke` shrinks sizes/iterations so ctest can exercise all the
// benchmark code in under a second.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "crypto/bignum.h"
#include "crypto/cpu_features.h"
#include "crypto/data_plane.h"
#include "crypto/hmac.h"
#include "crypto/prng.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "crypto/sealed.h"
#include "crypto/sha256.h"
#include "crypto/speck.h"
#include "lkh/key_tree.h"
#include "mykil/ticket.h"

namespace {

using namespace mykil;

/// Fixed inputs for a modexp of `bits`-size modulus: random odd modulus,
/// full-width base and exponent — the CRT half-exponentiation shape.
struct ModExpInputs {
  crypto::BigUInt base, exp, mod;
};

ModExpInputs modexp_inputs(std::size_t bits, std::uint64_t seed) {
  crypto::Prng prng(seed);
  ModExpInputs in;
  in.mod = crypto::BigUInt::random_with_bits(bits, prng);
  if (in.mod.is_even()) in.mod += crypto::BigUInt(1);
  in.base = crypto::BigUInt::random_with_bits(bits - 1, prng);
  in.exp = crypto::BigUInt::random_with_bits(bits, prng);
  return in;
}

void BM_Sha256(benchmark::State& state) {
  crypto::Prng prng(1);
  Bytes data = prng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  crypto::Prng prng(2);
  Bytes key = prng.bytes(16);
  Bytes data = prng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_SpeckCtr(benchmark::State& state) {
  crypto::Prng prng(3);
  Bytes key = prng.bytes(16);
  Bytes nonce = prng.bytes(8);
  Bytes data = prng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::speck_ctr(key, nonce, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SpeckCtr)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Rc4(benchmark::State& state) {
  crypto::Prng prng(4);
  Bytes key = prng.bytes(16);
  Bytes data = prng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::Rc4 rc4(key);
    rc4.process_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(4096)->Arg(1 << 20);

void BM_SymSeal(benchmark::State& state) {
  crypto::Prng prng(5);
  crypto::SymmetricKey key = crypto::SymmetricKey::random(prng);
  Bytes msg = prng.bytes(16);  // one key's worth — the rekey unit
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sym_seal(key, msg, prng));
  }
}
BENCHMARK(BM_SymSeal);

void BM_RsaEncrypt768(benchmark::State& state) {
  crypto::Prng prng(6);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  Bytes msg = prng.bytes(30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_encrypt(kp.pub, msg, prng));
  }
}
BENCHMARK(BM_RsaEncrypt768);

void BM_RsaDecrypt768(benchmark::State& state) {
  crypto::Prng prng(7);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  Bytes ct = crypto::rsa_encrypt(kp.pub, prng.bytes(30), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecrypt768);

void BM_RsaDecrypt768Blinded(benchmark::State& state) {
  crypto::Prng prng(7);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  Bytes ct = crypto::rsa_encrypt(kp.pub, prng.bytes(30), prng);
  crypto::rsa_set_blinding(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  }
  crypto::rsa_set_blinding(false);
}
BENCHMARK(BM_RsaDecrypt768Blinded);

void BM_RsaSign768(benchmark::State& state) {
  crypto::Prng prng(8);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  Bytes msg = prng.bytes(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSign768);

// Raw modular exponentiation, legacy square-and-multiply-with-division vs
// Montgomery fixed-window. The argument is the modulus size in bits; these
// are the CRT half-op shapes behind every private-key operation.
void BM_ModExpLegacy(benchmark::State& state) {
  ModExpInputs in = modexp_inputs(static_cast<std::size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigUInt::mod_exp(in.base, in.exp, in.mod));
  }
}
BENCHMARK(BM_ModExpLegacy)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_ModExpMont(benchmark::State& state) {
  ModExpInputs in = modexp_inputs(static_cast<std::size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::BigUInt::mod_exp_mont(in.base, in.exp, in.mod));
  }
}
BENCHMARK(BM_ModExpMont)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

// The paper's testbed key size. Private ops run the Montgomery CRT path.
void BM_RsaDecrypt2048(benchmark::State& state) {
  crypto::Prng prng(21);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(2048, prng);
  Bytes ct = crypto::rsa_encrypt(kp.pub, prng.bytes(30), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecrypt2048)->Unit(benchmark::kMillisecond);

void BM_RsaSign2048(benchmark::State& state) {
  crypto::Prng prng(22);
  static const crypto::RsaKeyPair kp = crypto::rsa_generate(2048, prng);
  Bytes msg = prng.bytes(200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSign2048)->Unit(benchmark::kMillisecond);

void BM_RsaKeygen1024(benchmark::State& state) {
  std::uint64_t seed = 23;
  for (auto _ : state) {
    crypto::Prng prng(seed++);
    benchmark::DoNotOptimize(crypto::rsa_generate(1024, prng));
  }
}
BENCHMARK(BM_RsaKeygen1024)->Unit(benchmark::kMillisecond);

void BM_TicketSealOpen(benchmark::State& state) {
  crypto::Prng prng(9);
  crypto::SymmetricKey k_shared = crypto::SymmetricKey::random(prng);
  core::Ticket t;
  t.join_time = 1;
  t.valid_until = 1000000000;
  t.member_id = 42;
  t.member_pubkey = prng.bytes(100);
  t.last_ac = 7;
  for (auto _ : state) {
    Bytes sealed = core::seal_ticket(t, k_shared, prng);
    benchmark::DoNotOptimize(core::open_ticket(sealed, k_shared, 500));
  }
}
BENCHMARK(BM_TicketSealOpen);

void BM_KeyTreeJoin(benchmark::State& state) {
  lkh::KeyTree::Config cfg;
  cfg.fanout = 4;
  lkh::KeyTree tree(cfg, crypto::Prng(10));
  lkh::MemberId next = 0;
  std::size_t prefill = static_cast<std::size_t>(state.range(0));
  while (next < prefill) tree.join(next++);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.join(next++));
  }
}
BENCHMARK(BM_KeyTreeJoin)->Arg(1000)->Arg(100000);

void BM_KeyTreeLeaveRekey(benchmark::State& state) {
  lkh::KeyTree::Config cfg;
  cfg.fanout = 4;
  lkh::KeyTree tree(cfg, crypto::Prng(11));
  std::size_t n = static_cast<std::size_t>(state.range(0));
  for (lkh::MemberId m = 0; m < n; ++m) tree.join(m);
  lkh::MemberId victim = 0;
  for (auto _ : state) {
    state.PauseTiming();
    tree.join(1000000 + victim);  // keep the population stable
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.leave(1000000 + victim));
    ++victim;
  }
}
BENCHMARK(BM_KeyTreeLeaveRekey)->Arg(1000)->Arg(100000);

/// Wall-clock one function, `iters` times, and record ns/op, with the
/// kernel that ran it unless `impl` is empty.
template <typename Fn>
void time_op(bench::BenchJson& json, const std::string& name, int iters,
             const char* impl, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  json.add(name, ns / iters, iters, 0, impl);
}

/// Like time_op, but the row also records MB/s over `bytes_per_op` and the
/// kernel the dispatcher picked.
template <typename Fn>
void time_op_tp(bench::BenchJson& json, const std::string& name, int iters,
                std::size_t bytes_per_op, const char* impl, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  double ns = static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      end - start)
                      .count()) /
              iters;
  double mb_s = ns > 0 ? static_cast<double>(bytes_per_op) * 1000.0 / ns : 0;
  json.add(name, ns, iters, mb_s, impl);
}

/// Like time_op, but records the median ns/op of `rounds` loops of `iters`
/// calls, so one descheduled stretch on a shared host does not move the row.
template <typename Fn>
void time_op_median(bench::BenchJson& json, const std::string& name,
                    int rounds, int iters, const char* impl, Fn&& fn) {
  std::vector<double> per_op;
  for (int r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    auto end = std::chrono::steady_clock::now();
    per_op.push_back(static_cast<double>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             end - start)
                             .count()) /
                     iters);
  }
  std::sort(per_op.begin(), per_op.end());
  json.add(name, per_op[per_op.size() / 2], rounds * iters, 0, impl);
}

/// Fixed chrono-timed pass over the crypto hot paths. Smoke mode shrinks
/// RSA to 768 bits and every loop to one iteration; the full run records
/// the paper's 2048-bit trajectory.
void run_json_suite(const std::string& path, bool smoke) {
  bench::BenchJson json("micro_crypto");
  const int reps = smoke ? 1 : 10;

  // Montgomery and RSA rows record the product kernel that ran them
  // (crypto::mont_impl_name); the legacy rows run no Montgomery product.
  const char* mont = crypto::mont_impl_name();
  ModExpInputs in1024 = modexp_inputs(1024, 20);
  ModExpInputs in2048 = modexp_inputs(2048, 20);
  time_op(json, "modexp_1024_legacy", smoke ? 1 : 5, "", [&] {
    benchmark::DoNotOptimize(
        crypto::BigUInt::mod_exp(in1024.base, in1024.exp, in1024.mod));
  });
  time_op(json, "modexp_1024_mont", smoke ? 1 : 5 * reps, mont, [&] {
    benchmark::DoNotOptimize(
        crypto::BigUInt::mod_exp_mont(in1024.base, in1024.exp, in1024.mod));
  });
  time_op(json, "modexp_2048_legacy", smoke ? 1 : 3, "", [&] {
    benchmark::DoNotOptimize(
        crypto::BigUInt::mod_exp(in2048.base, in2048.exp, in2048.mod));
  });
  time_op(json, "modexp_2048_mont", smoke ? 1 : 3 * reps, mont, [&] {
    benchmark::DoNotOptimize(
        crypto::BigUInt::mod_exp_mont(in2048.base, in2048.exp, in2048.mod));
  });

  const std::size_t rsa_bits = smoke ? 768 : 2048;
  const std::string rsa_tag = "rsa" + std::to_string(rsa_bits);
  crypto::Prng prng(30);
  crypto::RsaKeyPair kp = crypto::rsa_generate(rsa_bits, prng);
  Bytes msg = prng.bytes(30);
  Bytes ct = crypto::rsa_encrypt(kp.pub, msg, prng);
  Bytes sig = crypto::rsa_sign(kp.priv, msg);
  time_op(json, rsa_tag + "_encrypt", reps, mont, [&] {
    benchmark::DoNotOptimize(crypto::rsa_encrypt(kp.pub, msg, prng));
  });
  time_op(json, rsa_tag + "_decrypt", reps, mont, [&] {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  });
  crypto::rsa_set_blinding(true);
  time_op(json, rsa_tag + "_decrypt_blinded", reps, mont, [&] {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  });
  crypto::rsa_set_blinding(false);
  time_op(json, rsa_tag + "_sign", reps, mont, [&] {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, msg));
  });
  time_op(json, rsa_tag + "_verify", reps, mont, [&] {
    benchmark::DoNotOptimize(crypto::rsa_verify(kp.pub, msg, sig));
  });
  std::uint64_t keygen_seed = 40;
  time_op(json, rsa_tag + "_keygen", smoke ? 1 : 3, mont, [&] {
    crypto::Prng kg(keygen_seed++);
    benchmark::DoNotOptimize(crypto::rsa_generate(rsa_bits, kg));
  });

  // The deployment size: every Mykil key in perfbench/ is RSA-768 with
  // e = 65537, and its per-layer crypto.rsa_{private,public}_us calibrate
  // on these operations. The _portable rows pin the portable kernels
  // (set_force_scalar) so the ADX gain shows inside one file; the keygen
  // row cycles 8 fixed seeds, so every round generates the same keys.
  if (!smoke) {
    crypto::Prng dprng(31);
    const crypto::RsaKeyPair dkp = crypto::rsa_generate(768, dprng);
    const Bytes dct = crypto::rsa_encrypt(dkp.pub, msg, dprng);
    const Bytes dsig = crypto::rsa_sign(dkp.priv, msg);
    time_op_median(json, "rsa768_encrypt", 5, 4000, mont, [&] {
      benchmark::DoNotOptimize(crypto::rsa_encrypt(dkp.pub, msg, dprng));
    });
    time_op_median(json, "rsa768_decrypt", 5, 400, mont, [&] {
      benchmark::DoNotOptimize(crypto::rsa_decrypt(dkp.priv, dct));
    });
    crypto::rsa_set_blinding(true);
    time_op_median(json, "rsa768_decrypt_blinded", 5, 400, mont, [&] {
      benchmark::DoNotOptimize(crypto::rsa_decrypt(dkp.priv, dct));
    });
    crypto::rsa_set_blinding(false);
    time_op_median(json, "rsa768_sign", 5, 400, mont, [&] {
      benchmark::DoNotOptimize(crypto::rsa_sign(dkp.priv, msg));
    });
    time_op_median(json, "rsa768_verify", 5, 4000, mont, [&] {
      benchmark::DoNotOptimize(crypto::rsa_verify(dkp.pub, msg, dsig));
    });
    std::uint64_t keygen_n = 0;
    time_op_median(json, "rsa768_keygen", 5, 8, mont, [&] {
      crypto::Prng kg(40 + keygen_n++ % 8);
      benchmark::DoNotOptimize(crypto::rsa_generate(768, kg));
    });
    crypto::set_force_scalar(true);
    const char* portable = crypto::mont_impl_name();
    time_op_median(json, "rsa768_sign_portable", 5, 400, portable, [&] {
      benchmark::DoNotOptimize(crypto::rsa_sign(dkp.priv, msg));
    });
    time_op_median(json, "rsa768_verify_portable", 5, 4000, portable, [&] {
      benchmark::DoNotOptimize(crypto::rsa_verify(dkp.pub, msg, dsig));
    });
    crypto::set_force_scalar(false);
  }

  // Symmetric hot paths, for the satellite-optimization trajectory. The
  // unsuffixed rows run whatever the dispatcher picks on this host (their
  // impl field records which); _scalar rows pin the portable core so the
  // SIMD speedup is visible inside one file; _simd is the dispatched path
  // re-labeled for easy grep when comparing against _scalar.
  Bytes data1k = prng.bytes(1024);
  Bytes data4k = prng.bytes(4096);
  Bytes hkey = prng.bytes(16);
  Bytes nonce = prng.bytes(8);
  const int sym_reps = smoke ? 1 : 2000;
  time_op_tp(json, "sha256_1KiB", sym_reps, 1024, crypto::sha256_impl_name(),
             [&] { benchmark::DoNotOptimize(crypto::Sha256::digest(data1k)); });
  crypto::set_force_scalar(true);
  time_op_tp(json, "sha256_1KiB_scalar", sym_reps, 1024, "scalar", [&] {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data1k));
  });
  crypto::set_force_scalar(false);
  time_op(json, "hmac_oneshot_64B", sym_reps, "", [&] {
    benchmark::DoNotOptimize(
        crypto::hmac_sha256(hkey, ByteView(data1k.data(), 64)));
  });
  crypto::HmacKey hk(hkey);
  time_op(json, "hmac_keyed_64B", sym_reps, "", [&] {
    benchmark::DoNotOptimize(hk.mac(ByteView(data1k.data(), 64)));
  });
  time_op_tp(json, "speck_ctr_4KiB", sym_reps, 4096,
             crypto::speck_impl_name(), [&] {
               benchmark::DoNotOptimize(crypto::speck_ctr(hkey, nonce, data4k));
             });
  crypto::set_force_scalar(true);
  time_op_tp(json, "speck_ctr_4KiB_scalar", sym_reps, 4096, "scalar", [&] {
    benchmark::DoNotOptimize(crypto::speck_ctr(hkey, nonce, data4k));
  });
  crypto::set_force_scalar(false);
  time_op_tp(json, "speck_ctr_4KiB_simd", sym_reps, 4096,
             crypto::speck_impl_name(), [&] {
               benchmark::DoNotOptimize(crypto::speck_ctr(hkey, nonce, data4k));
             });

  // One member delivery (DESIGN.md 12): K_d's 40-byte key box under the
  // cached group context, then a one-shot open of the 64-byte payload
  // under K_d, straight into the buffer the member keeps.
  const crypto::SymmetricKey group_key = crypto::SymmetricKey::random(prng);
  const crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng);
  const crypto::DataPlaneKey group_ctx(group_key);
  const Bytes key_box = group_ctx.seal(data_key.bytes(), prng);
  const Bytes payload_box =
      crypto::sym_seal(data_key, ByteView(data1k.data(), 64), prng);
  time_op_median(json, "data_open_64B", 5, sym_reps, "", [&] {
    std::array<std::uint8_t, crypto::SymmetricKey::kSize> raw;
    Bytes plain(64);
    bool ok = group_ctx.open_into(key_box, raw) &&
              crypto::DataPlaneKey(crypto::SymmetricKey(raw))
                  .open_into(payload_box, plain);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(plain.data());
    benchmark::ClobberMemory();
  });
  time_op_median(json, "sym_open_64B", 5, sym_reps, "", [&] {
    benchmark::DoNotOptimize(crypto::sym_open(data_key, payload_box));
  });

  if (!json.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool json_only = false;
  bool smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--json_out=", 0) == 0) {
      json_path = std::string(a.substr(11));
    } else if (a == "--json_only") {
      json_only = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  if (!json_only) benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) run_json_suite(json_path, smoke);
  benchmark::Shutdown();
  return 0;
}
