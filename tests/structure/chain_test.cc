#include "structure/chain.h"

#include <gtest/gtest.h>

#include "acoustics/units.h"
#include "structure/mount.h"

namespace deepnote::structure {
namespace {

StructuralChain simple_chain() {
  EnclosureSpec enc;
  enc.material = WallMaterial::hard_plastic();
  enc.mass_law_reference_db = 20.0;
  MountSpec mount;
  mount.broadband_coupling_db = -2.0;
  mount.modes.push_back(Mode{.f0_hz = 680.0, .q = 4.0,
                             .peak_gain_db = 10.0, .label = {}});
  return StructuralChain(Enclosure(enc), Mount(mount));
}

TEST(MountTest, BroadbandCouplingOffResonance) {
  MountSpec spec;
  spec.broadband_coupling_db = -2.0;
  spec.modes.push_back(Mode{.f0_hz = 680.0, .q = 4.0,
                            .peak_gain_db = 10.0, .label = {}});
  Mount mount(spec);
  // At resonance: broadband + modal peak.
  EXPECT_NEAR(mount.coupling_db(680.0), 8.0, 0.2);
  // Far off resonance: broadband only (modal response negative, ignored).
  EXPECT_NEAR(mount.coupling_db(10000.0), -2.0, 0.2);
}

TEST(ChainTest, ComposesEnclosureAndMount) {
  StructuralChain chain = simple_chain();
  const double f = 680.0;
  const double expected = 150.0 -
                          chain.enclosure().transmission_loss_db(f) +
                          chain.mount().coupling_db(f);
  EXPECT_NEAR(chain.drive_spl_db(150.0, f), expected, 1e-9);
}

TEST(ChainTest, ExciteConvertsToPressure) {
  StructuralChain chain = simple_chain();
  acoustics::ToneState tone{680.0, 150.0, true};
  const DriveExcitation exc = chain.excite(tone);
  EXPECT_TRUE(exc.active);
  EXPECT_EQ(exc.frequency_hz, 680.0);
  const double spl = chain.drive_spl_db(150.0, 680.0);
  EXPECT_NEAR(exc.pressure_pa, acoustics::spl_water_db_to_pa(spl), 1e-9);
}

TEST(ChainTest, InactiveToneYieldsInactiveExcitation) {
  StructuralChain chain = simple_chain();
  EXPECT_FALSE(chain.excite(acoustics::ToneState{}).active);
}

TEST(ChainTest, InsertionLossHookAttenuates) {
  StructuralChain chain = simple_chain();
  const double before = chain.drive_spl_db(150.0, 1000.0);
  chain.set_insertion_loss([](double) { return 12.0; });
  EXPECT_NEAR(chain.drive_spl_db(150.0, 1000.0), before - 12.0, 1e-9);
  chain.set_insertion_loss(nullptr);
  EXPECT_NEAR(chain.drive_spl_db(150.0, 1000.0), before, 1e-9);
}

TEST(ChainTest, FrequencyDependentInsertionLoss) {
  StructuralChain chain = simple_chain();
  const double lo_before = chain.drive_spl_db(150.0, 200.0);
  const double hi_before = chain.drive_spl_db(150.0, 4000.0);
  chain.set_insertion_loss(
      [](double f) { return f > 1000.0 ? 20.0 : 2.0; });
  EXPECT_NEAR(chain.drive_spl_db(150.0, 200.0), lo_before - 2.0, 1e-9);
  EXPECT_NEAR(chain.drive_spl_db(150.0, 4000.0), hi_before - 20.0, 1e-9);
}

}  // namespace
}  // namespace deepnote::structure
