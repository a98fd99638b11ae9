// Two UNRELATED radio applications sharing one accelerator chain.
//
// The paper's gateways use round-robin precisely so that streams from
// different applications, with different rates and no mutual knowledge, can
// share accelerators with per-stream real-time guarantees. This example
// builds two independent FM mono receivers:
//
//   radio A (fast, 1 sample / 32 cycles):  mixer(-fA) -> LPF/4 -> software demod
//   radio B (slow, 1 sample / 48 cycles):  mixer(-fB) -> LPF/4 -> software demod
//
// Both use the SAME physical CORDIC and FIR tiles through one gateway pair.
// Each radio's audio tone must come back clean, and neither may disturb the
// other's real-time behaviour.
//
// Build & run:  ./build/examples/multi_radio_sharing
#include <algorithm>
#include <cmath>
#include <iostream>

#include "accel/fir.hpp"
#include "accel/mixer.hpp"
#include "common/table.hpp"
#include "lint/linter.hpp"
#include "radio/metrics.hpp"
#include "radio/signal.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sim/gateway.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"

namespace {

using namespace acc;

struct RadioSpec {
  std::string name;
  double carrier_norm;   // carrier as a fraction of its own sample rate
  double tone_norm;      // audio tone, fraction of sample rate
  sim::Cycle period;     // cycles per input sample
  std::size_t samples;   // input samples to synthesize
};

std::vector<sim::Flit> make_fm_input(const RadioSpec& r) {
  // Mono FM: tone -> FM at carrier (normalized rates; deviation 0.05).
  const double fs = 1.0;
  std::vector<double> audio(r.samples);
  for (std::size_t i = 0; i < r.samples; ++i)
    audio[i] = 0.8 * std::sin(2.0 * M_PI * r.tone_norm * static_cast<double>(i));
  const std::vector<radio::cplx> fm =
      radio::fm_modulate(audio, r.carrier_norm, 0.05, fs, 0.8);
  std::vector<sim::Flit> flits;
  flits.reserve(fm.size());
  for (const radio::cplx& s : fm)
    flits.push_back(sim::pack_sample(CQ16{Q16::from_double(s.real()),
                                          Q16::from_double(s.imag())}));
  return flits;
}

}  // namespace

int main(int argc, char** argv) {
  const int kDecim = 4;
  const RadioSpec radios[2] = {
      {"radio-A", 0.21, 0.002, 32, 1 << 14},
      {"radio-B", 0.13, 0.003, 48, 1 << 14},
  };

  // ---- Analysis: are both radios schedulable, and at what block sizes? ----
  sharing::SharedSystemSpec spec;
  spec.chain.accel_cycles_per_sample = {1, 1};
  spec.chain.entry_cycles_per_sample = 15;
  spec.chain.exit_cycles_per_sample = 1;
  spec.streams = {{radios[0].name, Rational(1, radios[0].period), 400},
                  {radios[1].name, Rational(1, radios[1].period), 400}};
  // Static admissibility gate (--no-lint skips).
  lint::LintInput li;
  li.name = "multi-radio-sharing";
  li.spec = spec;
  if (!lint::startup_gate(argc, argv, li, std::cerr)) return 2;

  std::cout << "utilization = " << sharing::utilization(spec).to_double()
            << "\n";
  sharing::BlockSizeResult blocks = sharing::solve_block_sizes_fixpoint(spec);
  if (!blocks.feasible) {
    std::cout << "not schedulable together\n";
    return 1;
  }
  // Decimation-align the blocks (fixed output count per block).
  std::vector<std::int64_t> eta = blocks.eta;
  for (std::int64_t& e : eta) e = (e + kDecim - 1) / kDecim * kDecim;
  while (!sharing::throughput_met(spec, eta)) {
    const sharing::Time gamma = sharing::gamma_hat(spec, eta);
    for (std::size_t s = 0; s < eta.size(); ++s) {
      const std::int64_t need = (spec.streams[s].mu * Rational(gamma)).ceil();
      eta[s] = std::max(eta[s], (need + kDecim - 1) / kDecim * kDecim);
    }
  }
  std::cout << "blocks: " << radios[0].name << "=" << eta[0] << ", "
            << radios[1].name << "=" << eta[1]
            << "; round gamma_hat=" << sharing::gamma_hat(spec, eta) << "\n\n";

  // ---- Build the shared MPSoC: nodes 0 entry, 1 CORDIC, 2 FIR, 3 exit. ----
  sim::System sys(4);
  auto& cordic = sys.add<sim::AcceleratorTile>("cordic", sys.ring(), 1, 1, 2);
  auto& fir = sys.add<sim::AcceleratorTile>("fir", sys.ring(), 2, 1, 2);
  const std::vector<Q16> taps =
      accel::quantize_taps(accel::design_lowpass(33, 0.08));
  for (int k = 0; k < 2; ++k) {
    cordic.register_context(
        k, std::make_unique<accel::NcoMixer>(
               accel::NcoMixer::freq_from_normalized(-radios[k].carrier_norm)));
    fir.register_context(k,
                         std::make_unique<accel::DecimatingFir>(taps, kDecim));
  }
  cordic.set_upstream(0, 1);
  cordic.set_downstream(2, 2, 2);
  fir.set_upstream(1, 1);
  fir.set_downstream(3, 3, 2);
  auto& exit_gw = sys.add<sim::ExitGateway>("exit", sys.ring(), 3, 1, 2);
  exit_gw.set_upstream(2, 2);
  auto& entry = sys.add<sim::EntryGateway>("entry", sys.ring(), 0, 15, 1, 1, 2);
  entry.set_chain({&cordic, &fir});
  entry.set_exit(&exit_gw);
  exit_gw.set_entry(&entry);

  sim::CFifo* ins[2];
  sim::CFifo* mids[2];
  for (int k = 0; k < 2; ++k) {
    ins[k] = &sys.add_fifo("in." + radios[k].name, 4 * eta[k]);
    mids[k] = &sys.add_fifo("mid." + radios[k].name, 4 * eta[k] / kDecim + 64);
    entry.add_stream({k, radios[k].name, eta[k], eta[k] / kDecim, ins[k],
                      mids[k], 400});
    sys.add<sim::SourceTile>("fe." + radios[k].name, *ins[k],
                             make_fm_input(radios[k]), radios[k].period);
  }

  // Software FM demodulation per radio on one processor tile.
  sim::CFifo* audio[2] = {&sys.add_fifo("audio.A", 4096, 0, 0),
                          &sys.add_fifo("audio.B", 4096, 0, 0)};
  auto& cpu = sys.add<sim::ProcessorTile>("pt.demod", 256);
  CQ16 prev[2] = {};
  for (int k = 0; k < 2; ++k) {
    cpu.add_task(sim::Task{
        "demod." + radios[k].name,
        [&, k](sim::Cycle now) -> sim::Cycle {
          if (!mids[k]->can_pop(now) || !audio[k]->can_push(now)) return 0;
          const CQ16 s = sim::unpack_sample(mids[k]->pop(now));
          const double re = s.re.to_double();
          const double im = s.im.to_double();
          const double pre = prev[k].re.to_double();
          const double pim = prev[k].im.to_double();
          prev[k] = s;
          const double d = std::atan2(im * pre - re * pim,
                                      re * pre + im * pim);
          audio[k]->push(now, sim::pack_sample(
                                  CQ16{Q16::from_double(d / M_PI), Q16{}}));
          return 40;  // software atan2 is not cheap
        },
        /*budget=*/128,
        /*priority=*/0,
        /*next_ready=*/
        [&, k](sim::Cycle now) -> sim::Cycle {
          return std::max(mids[k]->when_fill_visible(1, now),
                          audio[k]->when_space_visible(1, now));
        },
        /*wake_on_push=*/{mids[k]},
        /*wake_on_pop=*/{audio[k]}});
  }

  // ---- Run and report. ----
  const sim::Cycle horizon =
      static_cast<sim::Cycle>(radios[0].samples) * radios[0].period +
      static_cast<sim::Cycle>(radios[1].samples) * radios[1].period;
  sys.run(horizon);

  Table t({"radio", "blocks", "audio samples", "tone SNR (dB)", "drops"});
  bool all_ok = true;
  for (int k = 0; k < 2; ++k) {
    std::vector<double> aud;
    while (audio[k]->can_pop(sys.now()))
      aud.push_back(sim::unpack_sample(audio[k]->pop(sys.now())).re.to_double());
    radio::remove_dc(aud);
    const double fs_audio = 1.0 / kDecim;  // in units of the input rate
    const double snr =
        aud.size() > 300
            ? radio::tone_snr_db(aud, fs_audio, radios[k].tone_norm, 128)
            : -1.0;
    const auto& comps = entry.block_completions(k);
    t.add_row({radios[k].name, std::to_string(comps.size()),
               std::to_string(aud.size()), fmt_double(snr, 1), "0"});
    all_ok &= snr > 15.0;
  }
  std::cout << t.render();
  std::cout << "\ngateway: " << entry.stats().blocks << " blocks, "
            << fmt_int(entry.stats().samples_forwarded)
            << " samples forwarded, "
            << fmt_int(entry.stats().reconfig_cycles) << " reconfig cycles\n";
  std::cout << (all_ok ? "both radios decoded cleanly through the SHARED chain\n"
                       : "decode quality degraded!\n");
  return all_ok ? 0 : 1;
}
