// Umbrella header for the pfi neural-network substrate.
#pragma once

#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm_layer.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
