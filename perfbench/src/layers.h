#pragma once

/// \file layers.h
/// The traced run: per-layer metrics measured from the benchmark's own
/// files, by timing calls into each src/ module's public entry points.

#include <cstdint>
#include <string>

#include "pipeline.h"
#include "report.h"

namespace perfbench {

/// Sets up once, runs the serve phases as the measured run does, and
/// re-drives every layer on the same seeds with spans around each call.
void traceLayers(std::uint64_t seed, const Plan& plan,
                 const std::string& state_dir, Report& report, Tally& tally);

}  // namespace perfbench
