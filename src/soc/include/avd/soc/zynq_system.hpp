// Full Fig. 6 system assembly: the PS control plane, the AXI-Lite register
// fabric on GP0, the five AXI DMA cores, both detection modules and the PR
// controller, plus the high-performance-port bandwidth budget.
//
// This is the control-plane companion to the detection pipelines: it models
// what the ARM software actually does per frame — program the DMA registers,
// kick the accelerators, service the completion interrupts — and what that
// costs relative to the 20 ms frame budget.
#pragma once

#include <memory>

#include "avd/soc/dma_core.hpp"
#include "avd/soc/hw_pipeline.hpp"
#include "avd/soc/zynq.hpp"

namespace avd::soc {

/// Video traffic description for the bandwidth budget.
struct VideoFormat {
  img::Size frame{1920, 1080};
  int bytes_per_pixel = 2;  ///< YCbCr 4:2:2 over AXI-Stream
  double fps = 50.0;

  [[nodiscard]] std::uint64_t bytes_per_frame() const {
    return static_cast<std::uint64_t>(frame.area()) * bytes_per_pixel;
  }
  [[nodiscard]] double bandwidth_mbps() const {
    return static_cast<double>(bytes_per_frame()) * fps / 1e6;
  }
};

/// Accelerator control registers (one block per detection module):
///   0x00 CTRL   bit0 start (self-clearing), bit1 enable
///   0x04 STATUS bit0 done (W1C)
///   0x08 MODEL  0 = day SVM, 1 = dusk SVM (block-RAM select, §III-A)
///   0x0C PARAM  free-form parameter word (e.g. threshold)
class DetectionModuleRegs final : public AxiLiteDevice {
 public:
  DetectionModuleRegs(std::string name, HwPipelineModel timing,
                      InterruptController* irq, int irq_line,
                      EventLog* log = nullptr);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t window_bytes() const override { return 0x10; }
  std::uint32_t read(std::uint32_t offset, TimePoint now) override;
  void write(std::uint32_t offset, std::uint32_t value, TimePoint now) override;

  [[nodiscard]] std::uint32_t model_select() const { return model_; }
  [[nodiscard]] std::uint32_t param() const { return param_; }
  /// Completion time of the most recent start (start time + frame time).
  [[nodiscard]] TimePoint done_at() const { return done_at_; }
  void set_frame_size(img::Size size) { frame_size_ = size; }

 private:
  std::string name_;
  HwPipelineModel timing_;
  InterruptController* irq_;
  int irq_line_;
  EventLog* log_;
  img::Size frame_size_ = kHdtvFrame;
  std::uint32_t model_ = 0;
  std::uint32_t param_ = 0;
  bool enabled_ = false;
  bool done_ = false;
  TimePoint done_at_;
};

/// Fixed base addresses of the Fig. 6 register map (GP0 window).
namespace sysmap {
inline constexpr std::uint32_t kPedestrianInDma = 0x4040'0000;
inline constexpr std::uint32_t kPedestrianOutDma = 0x4041'0000;
inline constexpr std::uint32_t kVehicleInDma = 0x4042'0000;
inline constexpr std::uint32_t kVehicleOutDma = 0x4043'0000;
inline constexpr std::uint32_t kPrDma = 0x4044'0000;
inline constexpr std::uint32_t kPedestrianModule = 0x43C0'0000;
inline constexpr std::uint32_t kVehicleModule = 0x43C1'0000;
}  // namespace sysmap

/// Timing/accounting of one software-driven frame cycle.
struct FrameCycleReport {
  int register_accesses = 0;      ///< AXI-Lite reads+writes issued
  Duration control_time;          ///< bus time of those accesses
  Duration input_dma_time;        ///< frame-in transfer (slower of the two)
  Duration detect_time;           ///< accelerator busy time (max of the two)
  Duration output_dma_time;       ///< result transfer
  int irqs_serviced = 0;
  TimePoint frame_done;           ///< all results in PS DDR

  [[nodiscard]] Duration total_latency(TimePoint frame_start) const {
    return frame_done - frame_start;
  }
};

/// One HP-port lane of the bandwidth budget.
struct HpStream {
  std::string name;
  double mbps = 0.0;
  int hp_port = 0;
};

struct HpBudget {
  double port_capacity_mbps = 0.0;
  std::vector<HpStream> streams;

  /// Aggregate load of one port.
  [[nodiscard]] double port_load(int port) const;
  /// True when every port stays under capacity.
  [[nodiscard]] bool feasible() const;
  [[nodiscard]] double worst_utilization() const;
};

/// The assembled system.
class ZynqSystem {
 public:
  explicit ZynqSystem(ZynqPlatform platform = default_platform(),
                      VideoFormat video = {});

  /// Software frame cycle at `frame_start`: program both input DMAs, start
  /// both detection modules, program the output DMAs when detection is done,
  /// service all completion IRQs. Mirrors the driver flow Fig. 6 implies.
  FrameCycleReport process_frame(TimePoint frame_start);

  /// Select the vehicle SVM model (0 = day, 1 = dusk): a register write,
  /// not a reconfiguration.
  void select_vehicle_model(std::uint32_t model, TimePoint now);

  /// Drive a partial reconfiguration through the PR DMA core's registers
  /// (the register-level view of ReconfigController::reconfigure): program
  /// source address and length, let the DMA stream the bitstream into the
  /// ICAP, service the completion interrupt. Returns the interrupt handler
  /// entry time (reconfiguration complete).
  TimePoint reconfigure(std::uint32_t bitstream_bytes, TimePoint now);

  /// Bandwidth budget of the HP ports for the configured video format
  /// (input streams on HP0/HP1, results on HP2, as in Fig. 6).
  [[nodiscard]] HpBudget hp_budget() const;

  /// Whether the per-frame software cycle fits the fps budget.
  [[nodiscard]] bool meets_frame_budget();

  [[nodiscard]] const EventLog& log() const { return log_; }
  [[nodiscard]] InterruptController& irq() { return irq_; }
  [[nodiscard]] AxiLiteInterconnect& bus() { return bus_; }
  [[nodiscard]] const VideoFormat& video() const { return video_; }
  [[nodiscard]] DetectionModuleRegs& vehicle_module() { return *vehicle_mod_; }

 private:
  /// Register write helper that accumulates control-plane time.
  void ctrl_write(std::uint32_t address, std::uint32_t value, TimePoint& now,
                  FrameCycleReport& report);

  ZynqPlatform platform_;
  VideoFormat video_;
  EventLog log_;
  InterruptController irq_;
  AxiLiteInterconnect bus_;
  std::unique_ptr<DmaCore> ped_in_, ped_out_, veh_in_, veh_out_, pr_dma_;
  std::unique_ptr<DetectionModuleRegs> pedestrian_mod_, vehicle_mod_;
};

}  // namespace avd::soc
