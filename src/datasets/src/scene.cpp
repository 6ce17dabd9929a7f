#include "avd/datasets/scene.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "avd/datasets/sensor_noise.hpp"
#include "avd/image/draw.hpp"

namespace avd::data {
namespace {

using img::Rect;
using img::RgbImage;
using img::RgbPixel;

std::uint8_t scale_u8(std::uint8_t v, double k) {
  return static_cast<std::uint8_t>(
      std::clamp(std::lround(static_cast<double>(v) * k), 0L, 255L));
}

RgbPixel shade(RgbPixel p, double k) {
  return {scale_u8(p.r, k), scale_u8(p.g, k), scale_u8(p.b, k)};
}

void draw_background(RgbImage& frame, const SceneSpec& spec,
                     const AmbientParams& amb) {
  // Sky: vertical gradient, already pre-dimmed via AmbientParams sky values.
  for (int y = 0; y < std::min(spec.horizon_y, frame.height()); ++y) {
    const double t = spec.horizon_y > 1
                         ? static_cast<double>(y) / (spec.horizon_y - 1)
                         : 0.0;
    const auto v = static_cast<std::uint8_t>(
        std::lround(amb.sky_top + t * (amb.sky_horizon - amb.sky_top)));
    img::fill_rect(frame, {0, y, frame.width(), 1}, {v, v, v});
  }
  // Road: flat asphalt whose brightness follows ambient light.
  const auto road = static_cast<std::uint8_t>(
      std::lround(95.0 * std::max(amb.ambient, 0.04)));
  img::fill_rect(frame, {0, spec.horizon_y, frame.width(),
                         frame.height() - spec.horizon_y},
                 {road, road, road});

  // Dashed centre lane markings converging toward the vanishing point.
  const img::Point vanish{frame.width() / 2, spec.horizon_y};
  const RgbPixel lane = shade({200, 200, 190}, std::max(amb.ambient, 0.15));
  for (int lane_x : {frame.width() / 3, 2 * frame.width() / 3}) {
    const img::Point foot{lane_x, frame.height() - 1};
    // Sample dashes along the line from the bottom edge to the horizon.
    for (double t = 0.05; t < 0.95; t += 0.18) {
      const auto x0 = static_cast<int>(foot.x + (vanish.x - foot.x) * t);
      const auto y0 = static_cast<int>(foot.y + (vanish.y - foot.y) * t);
      const auto x1 = static_cast<int>(foot.x + (vanish.x - foot.x) * (t + 0.07));
      const auto y1 = static_cast<int>(foot.y + (vanish.y - foot.y) * (t + 0.07));
      img::draw_line(frame, {x0, y0}, {x1, y1}, lane);
    }
  }
}

void draw_clutter(RgbImage& frame, const SceneSpec& spec,
                  const AmbientParams& amb) {
  for (const ClutterSpec& c : spec.clutter)
    img::fill_rect(frame, c.box, shade(c.color, std::max(amb.ambient, 0.06)));
}

void draw_vehicle(RgbImage& frame, const VehicleSpec& v, const AmbientParams& amb) {
  const Rect& b = v.body;
  if (b.empty()) return;

  // Body brightness: interpolate the paint toward the road brightness as the
  // contrast multiplier drops — at dark, the body nearly vanishes.
  const double body_k = std::max(
      amb.ambient * amb.body_contrast * std::clamp(v.body_visibility, 0.0, 8.0),
      0.02);
  const RgbPixel body = shade(v.paint, body_k);

  // Shadow under the car: the classic daytime cue ("shadow under the car",
  // paper §II). Strength fades with ambient light.
  if (amb.shadow_strength > 0.01) {
    const Rect shadow{b.x - b.width / 16, b.bottom() - b.height / 10,
                      b.width + b.width / 8, b.height / 5};
    img::blend_rect(frame, shadow, {8, 8, 10},
                    static_cast<float>(amb.shadow_strength));
  }

  img::fill_rect(frame, b, body);

  // Rear window: darker band in the upper third.
  const Rect window{b.x + b.width / 8, b.y + b.height / 12, (3 * b.width) / 4,
                    b.height / 4};
  img::fill_rect(frame, window, shade(body, 0.35));

  // Bumper: lighter band near the bottom.
  const Rect bumper{b.x, b.bottom() - b.height / 5, b.width, b.height / 8};
  img::fill_rect(frame, bumper, shade(body, 1.35));

  // Wheels visible below the body corners.
  const int wheel_w = std::max(2, b.width / 8);
  const int wheel_h = std::max(2, b.height / 10);
  img::fill_rect(frame, {b.x + wheel_w / 2, b.bottom() - wheel_h, wheel_w, wheel_h},
                 {12, 12, 12});
  img::fill_rect(frame,
                 {b.right() - wheel_w - wheel_w / 2, b.bottom() - wheel_h,
                  wheel_w, wheel_h},
                 {12, 12, 12});

  // License plate between the taillights.
  const Rect plate{b.x + (3 * b.width) / 8, b.bottom() - b.height / 3,
                   b.width / 4, b.height / 8};
  img::fill_rect(frame, plate, shade({210, 210, 200}, std::max(amb.ambient, 0.1)));

  // Taillights.
  const auto [left, right] = v.taillight_boxes();
  const bool lit = v.force_lights ? v.taillights_lit : amb.taillights_lit;
  if (lit) {
    const double k = std::clamp(v.light_intensity, 0.3, 1.5);
    const RgbPixel hot = shade({255, 40, 28}, k);
    const int glow_r = std::max(3, (3 * left.width) / 2);
    const RgbPixel halo = shade({170, 20, 12}, k);
    if (!v.left_light_broken) {
      img::fill_ellipse(frame, left, hot);
      img::add_glow(frame, left.center(), glow_r, halo);
    }
    img::fill_ellipse(frame, right, hot);
    img::add_glow(frame, right.center(), glow_r, halo);
  } else {
    const RgbPixel off = shade({120, 18, 18}, std::max(amb.ambient, 0.08));
    img::fill_ellipse(frame, left, off);
    img::fill_ellipse(frame, right, off);
  }
}

void draw_pedestrian(RgbImage& frame, const PedestrianSpec& p,
                     const AmbientParams& amb) {
  const Rect& b = p.body;
  if (b.empty()) return;
  const double k = std::max(amb.ambient, 0.12);
  const RgbPixel skin = shade({190, 160, 140}, k);
  const RgbPixel coat = shade({60, 70, 120}, k);
  const RgbPixel legs = shade({40, 40, 50}, k);

  // Head (top fifth), torso (next two fifths), two legs (remainder).
  const int head_h = std::max(2, b.height / 5);
  img::fill_ellipse(frame,
                    {b.x + b.width / 4, b.y, b.width / 2, head_h}, skin);
  img::fill_rect(frame, {b.x, b.y + head_h, b.width, (2 * b.height) / 5}, coat);
  const int legs_y = b.y + head_h + (2 * b.height) / 5;
  const int leg_w = std::max(1, b.width / 3);
  img::fill_rect(frame, {b.x + leg_w / 2, legs_y, leg_w, b.bottom() - legs_y},
                 legs);
  img::fill_rect(frame,
                 {b.right() - leg_w - leg_w / 2, legs_y, leg_w,
                  b.bottom() - legs_y},
                 legs);
}

void draw_animal(RgbImage& frame, const AnimalSpec& a, const AmbientParams& amb) {
  const Rect& b = a.body;
  if (b.empty()) return;
  const double k = std::max(amb.ambient, 0.1);
  const RgbPixel coat = shade(a.coat, k);
  const RgbPixel dark_coat = shade(a.coat, k * 0.6);

  // Side view: torso ellipse over the upper half, head at the front-top,
  // four thin legs to the ground line. The silhouette (horizontal mass on
  // stilts) is what separates it from vehicles and pedestrians in HOG space.
  const int torso_h = std::max(3, (b.height * 45) / 100);
  const Rect torso{b.x, b.y + b.height / 5, (b.width * 4) / 5, torso_h};
  img::fill_ellipse(frame, torso, coat);

  const int head_d = std::max(2, b.height / 4);
  img::fill_ellipse(frame, {b.right() - head_d, b.y, head_d, head_d}, coat);
  img::fill_rect(frame,
                 {b.right() - head_d - 1, b.y + head_d / 2, head_d,
                  b.height / 4},
                 coat);

  const int leg_w = std::max(1, b.width / 12);
  const int legs_y = torso.bottom() - 1;
  for (const int lx : {b.x + leg_w, b.x + b.width / 3,
                       b.x + (2 * b.width) / 3 - leg_w,
                       b.x + (4 * b.width) / 5 - 2 * leg_w}) {
    img::fill_rect(frame, {lx, legs_y, leg_w, b.bottom() - legs_y}, dark_coat);
  }
}

void draw_distractors(RgbImage& frame, const SceneSpec& spec,
                      const AmbientParams& amb) {
  if (!amb.road_lights_on) return;
  for (const DistractorLight& d : spec.distractors) {
    const Rect core{d.position.x - d.radius / 2, d.position.y - d.radius / 2,
                    std::max(2, d.radius), std::max(2, d.radius)};
    img::fill_ellipse(frame, core, d.color);
    img::add_glow(frame, d.position, d.radius * 3,
                  shade(d.color, 0.55));
  }
  for (const StreakSpec& s : spec.streaks) img::fill_rect(frame, s.box, s.color);
}

}  // namespace

std::pair<img::Rect, img::Rect> VehicleSpec::taillight_boxes() const {
  const int lw = std::max(2, body.width / 7);
  const int lh = std::max(2, body.height / 6);
  const int ly = body.bottom() - body.height / 3 - lh / 2;
  const Rect left{body.x + body.width / 16, ly, lw, lh};
  const Rect right{body.right() - body.width / 16 - lw, ly, lw, lh};
  return {left, right};
}

img::RgbImage render_scene(const SceneSpec& spec) {
  RgbImage frame(spec.frame_size);
  const AmbientParams amb = spec.ambient_override.value_or(
      ambient_for(spec.condition));

  draw_background(frame, spec, amb);
  draw_clutter(frame, spec, amb);
  draw_distractors(frame, spec, amb);

  // Far-to-near painter's order: smaller (farther) vehicles first.
  std::vector<const VehicleSpec*> order;
  order.reserve(spec.vehicles.size());
  for (const auto& v : spec.vehicles) order.push_back(&v);
  std::stable_sort(order.begin(), order.end(),
                   [](const VehicleSpec* a, const VehicleSpec* b) {
                     return a->body.width < b->body.width;
                   });
  for (const VehicleSpec* v : order) draw_vehicle(frame, *v, amb);

  for (const PedestrianSpec& p : spec.pedestrians) draw_pedestrian(frame, p, amb);
  for (const AnimalSpec& a : spec.animals) draw_animal(frame, a, amb);

  for (const ClutterSpec& c : spec.foreground_clutter)
    img::fill_rect(frame, c.box, shade(c.color, std::max(amb.ambient, 0.06)));

  add_sensor_noise(frame, amb.noise_sigma, spec.noise_seed);
  return frame;
}

VehicleSpec SceneGenerator::random_vehicle(img::Size frame, int horizon_y) {
  VehicleSpec v;
  // Distance draw: near vehicles are large and low in the frame.
  const double distance = rng_.uniform(0.15, 1.0);  // 1.0 = nearest
  const int w = static_cast<int>(std::lround(
      std::clamp(distance, 0.15, 1.0) * 0.42 * frame.width));
  const int h = static_cast<int>(std::lround(w * rng_.uniform(0.72, 0.88)));
  const int road_depth = frame.height - horizon_y;
  const int y_bottom = horizon_y + static_cast<int>(distance * road_depth * 0.95);
  const int x = rng_.uniform_int(0, std::max(0, frame.width - w - 1));
  v.body = {x, y_bottom - h, w, h};
  v.paint = {static_cast<std::uint8_t>(rng_.uniform_int(40, 200)),
             static_cast<std::uint8_t>(rng_.uniform_int(30, 160)),
             static_cast<std::uint8_t>(rng_.uniform_int(30, 170))};
  // A small share of vehicles drive with a defective taillight — the hard
  // false-negative case for any pairing-based night detector.
  v.left_light_broken = rng_.bernoulli(0.08);
  return v;
}

AnimalSpec SceneGenerator::random_animal(img::Size frame, int horizon_y) {
  AnimalSpec a;
  const double distance = rng_.uniform(0.25, 1.0);
  const int w =
      std::max(8, static_cast<int>(std::lround(distance * 0.22 * frame.width)));
  const int h = std::max(6, static_cast<int>(std::lround(w * rng_.uniform(0.7, 0.9))));
  const int road_depth = frame.height - horizon_y;
  const int y_bottom =
      horizon_y + static_cast<int>(distance * road_depth * 0.9);
  a.body = {rng_.uniform_int(0, std::max(0, frame.width - w - 1)),
            y_bottom - h, w, h};
  const auto shade_val = static_cast<std::uint8_t>(rng_.uniform_int(70, 140));
  a.coat = {shade_val, static_cast<std::uint8_t>((shade_val * 3) / 4),
            static_cast<std::uint8_t>(shade_val / 2)};
  return a;
}

SceneSpec make_scenario(ScenarioPreset preset, LightingCondition condition,
                        img::Size frame, std::uint64_t seed) {
  SceneGenerator gen(condition, seed);
  switch (preset) {
    case ScenarioPreset::EmptyRoad:
      return gen.random_scene(frame, 0, 0);
    case ScenarioPreset::LightTraffic:
      return gen.random_scene(frame, gen.rng().uniform_int(1, 2), 0);
    case ScenarioPreset::DenseTraffic:
      return gen.random_scene(frame, gen.rng().uniform_int(4, 6),
                              gen.rng().uniform_int(1, 2));
    case ScenarioPreset::CountrysideRoad: {
      SceneSpec spec = gen.random_scene(frame, gen.rng().uniform_int(1, 2), 0);
      spec.clutter.clear();  // open fields, not buildings
      const int n_animals = gen.rng().uniform_int(1, 2);
      for (int i = 0; i < n_animals; ++i)
        spec.animals.push_back(gen.random_animal(frame, spec.horizon_y));
      return spec;
    }
  }
  throw std::invalid_argument("make_scenario: bad preset");
}

SceneSpec SceneGenerator::random_scene(img::Size frame, int n_vehicles,
                                       int n_pedestrians) {
  SceneSpec spec;
  spec.condition = condition_;
  spec.frame_size = frame;
  spec.horizon_y = frame.height * 2 / 5 + rng_.uniform_int(-frame.height / 20,
                                                           frame.height / 20);
  spec.noise_seed = rng_.engine()();

  for (int i = 0; i < n_vehicles; ++i)
    spec.vehicles.push_back(random_vehicle(frame, spec.horizon_y));

  // Condition-appropriate distractor lights.
  const AmbientParams amb = ambient_for(condition_);
  if (amb.road_lights_on) {
    const int n_lights = rng_.uniform_int(2, 5);
    for (int i = 0; i < n_lights; ++i) {
      DistractorLight d;
      d.position = {rng_.uniform_int(0, frame.width - 1),
                    rng_.uniform_int(frame.height / 20, spec.horizon_y)};
      d.radius = rng_.uniform_int(3, 8);
      spec.distractors.push_back(d);
    }
    // Oncoming headlights: white pairs near the road surface.
    if (rng_.bernoulli(0.6)) {
      const int y = spec.horizon_y + rng_.uniform_int(10, frame.height / 4);
      const int x = rng_.uniform_int(frame.width / 12, frame.width / 3);
      const int gap = rng_.uniform_int(10, 24);
      spec.distractors.push_back({{x, y}, 5, {255, 250, 235}});
      spec.distractors.push_back({{x + gap, y}, 5, {255, 250, 235}});
    }
    // Red non-taillight lights: traffic signals above the road, wet-road
    // brake-light reflections. These pass the chroma gate and must be
    // rejected by the DBN shape classes or the pairing stage.
    if (rng_.bernoulli(0.5)) {
      DistractorLight red;
      red.position = {rng_.uniform_int(0, frame.width - 1),
                      rng_.uniform_int(frame.height / 10, frame.height - 1)};
      red.radius = rng_.uniform_int(2, 5);
      red.color = {255, 45, 30};
      std::vector<DistractorLight> reds{red};
      // Signal heads frequently come in same-height pairs — geometrically
      // indistinguishable from a taillight pair until shape/pairing checks.
      if (rng_.bernoulli(0.35)) {
        DistractorLight second = red;
        second.position.x =
            std::min(frame.width - 1,
                     red.position.x + rng_.uniform_int(20, 80));
        reds.push_back(second);
      }
      for (const DistractorLight& r : reds) {
        spec.distractors.push_back(r);
        // A wet road smears each light into a vertical streak below it.
        if (rng_.bernoulli(0.6)) {
          StreakSpec streak;
          const int w = rng_.uniform_int(2, 4);
          const int h = rng_.uniform_int(12, 28);
          streak.box = {r.position.x - w / 2, r.position.y + r.radius, w, h};
          spec.streaks.push_back(streak);
        }
      }
    }
  }

  // Static clutter above the horizon (buildings / signs), any condition.
  const int n_clutter = rng_.uniform_int(1, 4);
  for (int i = 0; i < n_clutter; ++i) {
    ClutterSpec c;
    const int w = rng_.uniform_int(frame.width / 16, frame.width / 5);
    const int h = rng_.uniform_int(frame.height / 12, frame.height / 4);
    c.box = {rng_.uniform_int(0, std::max(0, frame.width - w - 1)),
             std::max(0, spec.horizon_y - h), w, h};
    const auto g = static_cast<std::uint8_t>(rng_.uniform_int(60, 130));
    c.color = {g, g, static_cast<std::uint8_t>(g + 5)};
    spec.clutter.push_back(c);
  }

  for (int i = 0; i < n_pedestrians; ++i) {
    PedestrianSpec p;
    const int h = rng_.uniform_int(frame.height / 8, frame.height / 4);
    const int w = std::max(4, h / 3);
    const int y_bottom = rng_.uniform_int(spec.horizon_y + h,
                                          frame.height - 1);
    p.body = {rng_.uniform_int(0, std::max(0, frame.width - w - 1)),
              y_bottom - h, w, h};
    spec.pedestrians.push_back(p);
  }

  return spec;
}

}  // namespace avd::data
