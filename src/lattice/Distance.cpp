//===- lattice/Distance.cpp - Chain lattice of iteration distances -------===//

#include "lattice/Distance.h"

#include <ostream>

using namespace ardf;

std::string DistanceValue::toString() const {
  if (isNoInstance())
    return "_";
  if (isAllInstances())
    return "T";
  return std::to_string(getDistance());
}

std::ostream &ardf::operator<<(std::ostream &OS, const DistanceValue &V) {
  return OS << V.toString();
}
